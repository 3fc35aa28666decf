import tracemalloc

import numpy as np
import pytest
from helpers import feats_from_blocks
from hypothesis import given, settings
from hypothesis import strategies as st

from dntk import sketch
from dntk.cluster import spectral_cluster
from dntk.distill import local_eigensystems
from dntk.errors import BadEps, BadLambda, InsufficientMemory, ScaleMismatch, ZeroTrace
from dntk.kernel import (
    average_kernel,
    build_stack,
    conditioning,
    effective_dimension,
    kept_rank,
    scale_factor,
    scaled_gram,
    spectrum_conditioning,
    truncation_rank,
)
from dntk.numerics import sym_eigvals


class TestClassKernel:
    def test_identity_features_scale_none(self):
        feats = feats_from_blocks([np.eye(4)])
        np.testing.assert_array_equal(build_stack(feats, "none")[0], np.eye(4))

    def test_single_row_inv_k(self):
        phi = np.array([[3.0, 4.0]])  # norm^2 = 25, width 2
        feats = feats_from_blocks([phi])
        k = build_stack(feats, "inv_k")[0]
        np.testing.assert_allclose(k, [[12.5]])

    def test_symmetry_enforced(self):
        rng = np.random.default_rng(0)
        feats = feats_from_blocks(rng.normal(size=(2, 6, 9)))
        for k in build_stack(feats):
            np.testing.assert_array_equal(k, k.T)

    def test_scale_factor(self):
        assert scale_factor("none", 7) == 1.0
        assert scale_factor("inv_k", 8) == 0.125
        with pytest.raises(ScaleMismatch):
            scale_factor("bogus", 4)


class TestBuildStack:
    def test_layers_equal_class_kernels(self):
        rng = np.random.default_rng(1)
        feats = feats_from_blocks(rng.normal(size=(3, 70, 11)))
        stack = build_stack(feats, "inv_k")
        for c in range(3):
            gram = np.empty((70, 70))
            scaled_gram(feats.per_class[c], 1.0 / 11, gram)
            np.testing.assert_array_equal(stack[c], gram)
            np.testing.assert_array_equal(stack[c], stack[c].T)
            ref = feats.per_class[c] @ feats.per_class[c].T / 11
            np.testing.assert_allclose(stack[c], ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())

    def test_symmetrizes_a_non_symmetric_product(self):
        # a strided operand takes a general matmul, whose products need not
        # be exactly symmetric; each layer must still equal (K + K^T) / 2
        rng = np.random.default_rng(2)
        blocks = rng.normal(size=(2, 150, 40))[:, :, ::2]
        stack = build_stack(feats_from_blocks(blocks), "none")
        for c in range(2):
            k = blocks[c] @ blocks[c].T
            np.testing.assert_array_equal(stack[c], 0.5 * (k + k.T))

    # (C, s, D) of the stacks and fits the workloads build: accept09's
    # n x k, a default-config distilled set, a wide flattened set, a tiny one
    @pytest.mark.parametrize("shape", [(10, 500, 256), (10, 39, 553), (3, 5, 2560), (2, 7, 3)])
    @pytest.mark.parametrize("layout", ["class_major", "sample_major"])
    def test_caller_blocks_give_exactly_symmetric_grams(self, shape, layout):
        # sample_major is a (C, s, D) view of an (s, C, D) array, whose rows
        # keep unit stride but are not contiguous with each other
        c, s, d = shape
        rng = np.random.default_rng(4)
        if layout == "class_major":
            blocks = rng.normal(size=shape)
        else:
            blocks = rng.normal(size=(s, c, d)).transpose(1, 0, 2)
        gram = np.empty((s, s))
        for ci in range(c):
            scaled_gram(blocks[ci], 1.0 / d, gram)
            np.testing.assert_array_equal(gram, gram.T)
            # no symmetrization pass moves a value of the scaled product
            np.testing.assert_array_equal(gram, (blocks[ci] @ blocks[ci].T) * (1.0 / d))
        for k in build_stack(feats_from_blocks(blocks)):
            np.testing.assert_array_equal(k, k.T)

    @pytest.mark.parametrize("layout", ["reversed_rows", "column_major", "strided_columns"])
    def test_other_layouts_give_the_symmetrized_product(self, layout):
        # at this size numpy's general product of reversed or strided rows
        # with their transpose is not exactly symmetric
        rng = np.random.default_rng(5)
        base = rng.normal(size=(300, 1106))
        phi = {
            "reversed_rows": base[::-1, :553],
            "column_major": np.asfortranarray(base[:, :553]),
            "strided_columns": base[:, ::2],
        }[layout]
        gram = np.empty((300, 300))
        scaled_gram(phi, 0.5, gram)
        k = (phi @ phi.T) * 0.5
        np.testing.assert_array_equal(gram, 0.5 * (k + k.T))
        np.testing.assert_array_equal(gram, gram.T)

    def test_peak_memory_is_the_output(self):
        rng = np.random.default_rng(3)
        feats = feats_from_blocks(rng.normal(size=(10, 300, 50)))
        tracemalloc.start()
        try:
            stack = build_stack(feats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * stack.nbytes

    def test_refuses_a_stack_larger_than_free_memory(self, monkeypatch):
        feats = feats_from_blocks(np.random.default_rng(6).normal(size=(3, 20, 5)))
        need = 8 * 3 * 20 * 20
        ref = build_stack(feats)
        monkeypatch.setattr(sketch, "available_memory", lambda: need - 1)
        with pytest.raises(InsufficientMemory, match=f"a 3 x 20 x 20 kernel stack needs {need} "
                                                     f"bytes, {need - 1} bytes of memory"):
            build_stack(feats)
        # an exact fit is built, and so is any stack when no probe can be read
        for left in (need, None):
            monkeypatch.setattr(sketch, "available_memory", lambda: left)
            np.testing.assert_array_equal(build_stack(feats), ref)


class TestAveragedStack:
    LAYOUTS = {
        "contiguous": lambda blocks: blocks,
        "reversed_rows": lambda blocks: blocks[:, ::-1],
        "column_major": lambda blocks: blocks.transpose(0, 2, 1).copy().transpose(0, 2, 1),
    }

    @pytest.mark.parametrize("shape, scale_kind, layout", [
        ((1, 7, 5), "inv_k", "contiguous"),
        ((11, 1, 5), "inv_k", "contiguous"),
        ((1, 1, 3), "none", "contiguous"),
        ((3, 37, 11), "none", "contiguous"),
        ((3, 37, 11), "inv_k", "reversed_rows"),
        ((4, 30, 12), "inv_k", "column_major"),
        ((10, 500, 256), "inv_k", "contiguous"),
        ((10, 500, 553), "inv_k", "contiguous"),
    ], ids=["one_class", "one_sample", "one_of_each", "scale_none", "reversed_rows",
            "column_major", "accept09", "default_config"])
    def test_equals_the_mean_of_the_stack(self, shape, scale_kind, layout):
        # the mean summed class by class has the bits of the stack's mean,
        # the last two shapes being the sketched sets of acceptance test 9
        # and of the default config
        blocks = np.random.default_rng(sum(shape)).normal(size=shape)
        feats = feats_from_blocks(self.LAYOUTS[layout](blocks))
        stack = build_stack(feats, scale_kind)
        kbar = build_stack(feats, scale_kind, average=True)
        assert kbar.shape == shape[1:2] * 2
        assert kbar.tobytes() == average_kernel(stack).tobytes()
        if shape[1] > 1:
            # numpy's mean over the class axis of a stack of n x n layers
            # adds them in the same order; a lone sample's C values it sums
            # pairwise, by blocks of 8, so at C = 11 it rounds differently
            assert kbar.tobytes() == stack.mean(axis=0).tobytes()

    def test_refuses_an_average_larger_than_free_memory(self, monkeypatch):
        feats = feats_from_blocks(np.random.default_rng(6).normal(size=(3, 20, 5)))
        need = 2 * 8 * 20 * 20
        ref = build_stack(feats, average=True)
        monkeypatch.setattr(sketch, "available_memory", lambda: need - 1)
        with pytest.raises(InsufficientMemory, match=f"a 20 x 20 averaged kernel and one class "
                                                     f"kernel needs {need} bytes, {need - 1}"):
            build_stack(feats, average=True)
        for left in (need, None):
            monkeypatch.setattr(sketch, "available_memory", lambda: left)
            assert build_stack(feats, average=True).tobytes() == ref.tobytes()


class TestAverageKernel:
    def test_single_class_is_identity_map(self):
        rng = np.random.default_rng(1)
        feats = feats_from_blocks([rng.normal(size=(5, 7))])
        stack = build_stack(feats, "none")
        np.testing.assert_array_equal(average_kernel(stack), stack[0])

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


class TestKeptRank:
    def test_noise_floor_binds_for_distill_and_kernel_stats_alike(self):
        # one unit eigenvalue and ten at 1e-14, below the 1e-12 * trace
        # floor: at tau_v = 1 the trace fraction alone asks for all 11 modes
        vals = np.array([1.0] + [1e-14] * 10)
        tau_v = 1.0
        assert truncation_rank(vals, 1.0 - tau_v) == 11
        assert kept_rank(vals, 1.0 - tau_v) == 1
        assert kept_rank(sym_eigvals(np.diag(vals)), 1.0 - tau_v) == 1
        part = spectral_cluster(np.ones((11, 11)), 1, seed=0)
        [(_, r_h)] = local_eigensystems(np.diag(vals), part, tau_v)
        assert r_h == 1

    def test_equals_truncation_rank_above_the_floor(self):
        vals = np.array([0.5, 0.3, 0.15, 0.05])
        for eps in (0.0, 0.05, 0.3):
            assert kept_rank(vals, eps) == truncation_rank(vals, eps)

    def test_clamps_negative_roundoff(self):
        # the floor is taken of the clamped trace; a negative mode never counts
        assert kept_rank(np.array([2.0, 1.0, -1e-3]), 0.0) == 2
        with pytest.raises(ZeroTrace):
            kept_rank(np.array([0.0, -1.0]), 0.05)


class TestSpectralSummary:
    """kernel_stats.csv's columns, each read from a spectrum alone."""

    def test_identity(self):
        values = sym_eigvals(np.eye(5))
        condition, min_eig = spectrum_conditioning(values)
        assert condition == 1.0
        assert min_eig == pytest.approx(1.0)
        assert kept_rank(values, 0.05) == 5  # equal mass: need 95% of 5 -> ceil

    def test_diag_condition(self):
        cond, min_eig = conditioning(np.diag([4.0, 1.0]))
        assert cond == pytest.approx(4.0)
        assert min_eig == pytest.approx(1.0)
        # the eigenvalues alone give what the eigensystem gives
        assert spectrum_conditioning(sym_eigvals(np.diag([4.0, 1.0]))) == (cond, min_eig)

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
        assert sym_eigvals(k).sum() == pytest.approx(np.trace(k))


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
