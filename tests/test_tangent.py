import tracemalloc

import numpy as np
import pytest
from helpers import N_AROUND_ROW_BATCH, class_blocks, positioned_backprop

from dntk.errors import DimMismatch, Divergence
from dntk.metrics import accuracy
from dntk.tangent import (
    ROW_BATCH,
    LabeledDataset,
    _act,
    _act_grad,
    _unpack,
    chain_rule_check,
    cross_entropy,
    extract_features,
    forward,
    forward_batch,
    gen_gaussian_mixture,
    init_params,
    loss_logit_gradient,
    loss_param_gradient,
    one_hot,
    param_blocks,
    param_count,
    per_logit_gradient,
    train_sgd,
)


def fd_logit_jacobian(params, x, h=1e-5):
    """Central-difference oracle for per-logit parameter gradients."""
    p = params.theta.size
    c = params.class_count
    jac = np.zeros((c, p))
    for i in range(p):
        theta_plus = params.theta.copy()
        theta_plus[i] += h
        theta_minus = params.theta.copy()
        theta_minus[i] -= h
        up = forward(params.with_theta(theta_plus), x)
        down = forward(params.with_theta(theta_minus), x)
        jac[:, i] = (up - down) / (2 * h)
    return jac


def fd_loss_gradient(params, x, y, loss, h=1e-5):
    p = params.theta.size
    grad = np.zeros(p)
    for i in range(p):
        tp = params.theta.copy()
        tp[i] += h
        tm = params.theta.copy()
        tm[i] -= h
        grad[i] = (_loss_value(params.with_theta(tp), x, y, loss)
                   - _loss_value(params.with_theta(tm), x, y, loss)) / (2 * h)
    return grad


def _loss_value(params, x, y, loss):
    z = forward(params, x)
    if loss == "squared":
        t = one_hot(np.array([y]), params.class_count)[0]
        return float(np.sum((z - t) ** 2))
    zs = z - z.max()
    return float(np.log(np.sum(np.exp(zs))) - zs[y])


class TestParams:
    def test_param_count_formula(self):
        # P = sum over layers of (in*out + out)
        assert param_count([4, 7, 3]) == 4 * 7 + 7 + 7 * 3 + 3
        assert param_count([5, 2]) == 5 * 2 + 2

    @pytest.mark.parametrize("sizes", [(1, 1), (5, 2), (4, 7, 3), (5, 9, 7, 4), (3, 1, 6, 1, 2)])
    def test_param_blocks_tile_theta_and_unpack_views_them(self, sizes):
        # per layer in network order: the row-major weight block, then the
        # bias block right after it, the blocks covering [0, P) with no gap
        blocks = param_blocks(sizes)
        assert len(blocks) == len(sizes) - 1
        pos = 0
        for (w_at, b_at, fan_out, fan_in), f_in, f_out in zip(blocks, sizes[:-1], sizes[1:]):
            assert (fan_out, fan_in) == (f_out, f_in)
            assert (w_at.start, w_at.stop, w_at.step) == (pos, pos + f_out * f_in, None)
            assert (b_at.start, b_at.stop, b_at.step) == (w_at.stop, w_at.stop + f_out, None)
            pos = b_at.stop
        assert pos == param_count(sizes) == sum(i * o + o for i, o in zip(sizes[:-1], sizes[1:]))
        # theta holding its own indices shows which entries each view reads
        p = init_params(sizes, seed=0)
        p = p.with_theta(np.arange(pos, dtype=np.float64))
        for (w, b), (w_at, b_at, fan_out, fan_in) in zip(_unpack(p), blocks):
            assert w.base is p.theta and b.base is p.theta  # views, no copies
            assert w.shape == (fan_out, fan_in) and b.shape == (fan_out,)
            assert w.ravel().tolist() == list(range(w_at.start, w_at.stop))
            assert b.tolist() == list(range(b_at.start, b_at.stop))

    def test_init_draws_weights_layer_by_layer(self):
        # each layer's (fan_out, fan_in) draw in network order, its bias
        # zero: the bits of one concatenation of per-layer chunks
        sizes = (5, 9, 7, 4)
        rng = np.random.default_rng(3)
        ref = np.concatenate([
            part for f_in, f_out in zip(sizes[:-1], sizes[1:])
            for part in ((rng.uniform(-1.0, 1.0, size=(f_out, f_in)) / np.sqrt(f_in)).ravel(),
                         np.zeros(f_out))])
        assert init_params(sizes, seed=3).theta.tobytes() == ref.tobytes()

    def test_init_shapes_and_determinism(self):
        a = init_params([4, 6, 3], seed=0)
        b = init_params([4, 6, 3], seed=0)
        assert a.theta.size == param_count([4, 6, 3])
        np.testing.assert_array_equal(a.theta, b.theta)
        assert not np.array_equal(a.theta, init_params([4, 6, 3], seed=1).theta)

    def test_init_biases_zero(self):
        p = init_params([3, 5, 2], seed=2)
        # layout [W0, b0, W1, b1]: bias slices must be zero at init
        w0 = 3 * 5
        np.testing.assert_array_equal(p.theta[w0:w0 + 5], np.zeros(5))
        assert p.theta[-2:].tolist() == [0.0, 0.0]

    def test_init_weight_scale(self):
        p = init_params([9, 4], seed=3)
        w = p.theta[: 9 * 4]
        assert np.all(np.abs(w) <= 1.0 / 3.0 + 1e-12)


class TestForward:
    def test_zero_params_zero_logits(self):
        p = init_params([4, 5, 3], seed=0)
        z = forward(p.with_theta(np.zeros_like(p.theta)), np.ones(4))
        np.testing.assert_array_equal(z, np.zeros(3))

    def test_single_layer_basis_vector(self):
        # one affine layer: f(e_0) = W[:, 0] + b
        p = init_params([4, 3], seed=1)
        rng = np.random.default_rng(5)
        theta = rng.normal(size=p.theta.size)
        p = p.with_theta(theta)
        w = theta[:12].reshape(3, 4)
        b = theta[12:]
        np.testing.assert_allclose(forward(p, np.eye(4)[0]), w[:, 0] + b)

    def test_batch_matches_loop(self):
        p = init_params([5, 8, 4], seed=2)
        rng = np.random.default_rng(6)
        xb = rng.normal(size=(7, 5))
        zb = forward_batch(p, xb)
        for i in range(7):
            np.testing.assert_allclose(zb[i], forward(p, xb[i]), atol=1e-14)

    def test_dim_mismatch(self):
        p = init_params([4, 3], seed=0)
        with pytest.raises(DimMismatch):
            forward(p, np.ones(5))
        # one input check serves every entry point
        for call in (lambda: forward_batch(p, np.ones(4)),
                     lambda: forward_batch(p, np.ones((2, 5))),
                     lambda: per_logit_gradient(p, np.ones((1, 4))),
                     lambda: loss_param_gradient(p, np.ones(5), 0, "squared"),
                     lambda: extract_features(p, np.ones((2, 3)), np.zeros(2, dtype=int))):
            with pytest.raises(DimMismatch):
                call()


class TestPerLogitGradient:
    def test_linear_layer_closed_form(self):
        p = init_params([4, 3], seed=0)
        x = np.array([0.5, -1.0, 2.0, 0.25])
        jac = per_logit_gradient(p, x)
        for c in range(3):
            expected = np.zeros(p.theta.size)
            expected[c * 4:(c + 1) * 4] = x
            expected[12 + c] = 1.0
            np.testing.assert_allclose(jac[c], expected, atol=1e-14)

    def test_finite_difference_small_net(self):
        p = init_params([4, 7, 3], seed=4)
        rng = np.random.default_rng(7)
        x = rng.normal(size=4)
        jac = per_logit_gradient(p, x)
        ref = fd_logit_jacobian(p, x)
        scale = np.maximum(np.abs(ref), 1e-6)
        assert np.max(np.abs(jac - ref) / scale) < 1e-4

    def test_identical_inputs_identical_rows(self):
        p = init_params([3, 6, 2], seed=5)
        x = np.array([1.0, -0.5, 0.3])
        np.testing.assert_array_equal(per_logit_gradient(p, x),
                                      per_logit_gradient(p, x.copy()))


class TestChainRule:
    @pytest.mark.parametrize("loss", ["squared", "cross_entropy"])
    def test_residual_small(self, loss):
        p = init_params([5, 9, 4], seed=6)
        rng = np.random.default_rng(8)
        x = rng.normal(size=5)
        assert chain_rule_check(p, x, 2, loss=loss) < 1e-10

    def test_squared_loss_exact_fit(self):
        # rig the network so f(x) = one_hot(y): delta = 0, residual 0
        p = init_params([2, 3], seed=0)
        theta = np.zeros(p.theta.size)
        theta[6 + 1] = 1.0  # bias of logit 1... logits = e_1
        p = p.with_theta(theta)
        res = chain_rule_check(p, np.zeros(2), 1, loss="squared")
        assert res == 0.0

    def test_linear_squared_closed_form_delta(self):
        p = init_params([3, 2], seed=7)
        rng = np.random.default_rng(9)
        p = p.with_theta(rng.normal(size=p.theta.size))
        x = rng.normal(size=3)
        z = forward(p, x)
        t = one_hot(np.array([0]), 2)[0]
        np.testing.assert_allclose(loss_logit_gradient(z, 0, "squared"),
                                   2.0 * (z - t))

    @pytest.mark.parametrize("loss", ["squared", "cross_entropy"])
    def test_loss_param_gradient_matches_fd(self, loss):
        p = init_params([4, 6, 3], seed=8)
        rng = np.random.default_rng(10)
        x = rng.normal(size=4)
        got = loss_param_gradient(p, x, 1, loss)
        ref = fd_loss_gradient(p, x, 1, loss)
        assert np.max(np.abs(got - ref)) < 1e-6


class TestMixture:
    def test_shapes_and_label_layout(self):
        data = gen_gaussian_mixture(3, 5, 4, 0.5, seed=0)
        assert data.inputs.shape == (15, 4)
        assert data.labels.tolist() == [0] * 5 + [1] * 5 + [2] * 5
        assert data.class_count == 3

    def test_spread_zero_collapses_to_means(self):
        data = gen_gaussian_mixture(2, 4, 3, 0.0, seed=1)
        for c in range(2):
            block = data.inputs[c * 4:(c + 1) * 4]
            assert np.ptp(block, axis=0).max() == 0.0

    def test_deterministic(self):
        a = gen_gaussian_mixture(2, 3, 4, 0.7, seed=5)
        b = gen_gaussian_mixture(2, 3, 4, 0.7, seed=5)
        np.testing.assert_array_equal(a.inputs, b.inputs)


class TestTrainSgd:
    def test_epochs_zero_unchanged(self):
        p = init_params([4, 6, 2], seed=0)
        data = gen_gaussian_mixture(2, 6, 4, 0.5, seed=0)
        out = train_sgd(p, data, lr=0.1, epochs=0, batch=4, seed=0)
        np.testing.assert_array_equal(out.theta, p.theta)
        assert out is not p

    def test_deterministic(self):
        data = gen_gaussian_mixture(2, 8, 4, 0.5, seed=1)
        a = train_sgd(init_params([4, 6, 2], seed=1), data, lr=0.05,
                      epochs=10, batch=4, seed=2)
        b = train_sgd(init_params([4, 6, 2], seed=1), data, lr=0.05,
                      epochs=10, batch=4, seed=2)
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_loss_mostly_decreasing(self):
        # one seed, so the runs share a shuffle prefix: each is the longer
        # runs' state after that many epochs
        data = gen_gaussian_mixture(3, 10, 5, 0.4, seed=2)
        p = init_params([5, 12, 3], seed=3)
        history = np.array([
            cross_entropy(train_sgd(p, data, lr=0.05, epochs=e, batch=8, seed=4), data)
            for e in (0, 10, 20, 40)
        ])
        # transient upticks allowed, bounded at 5% of the running best
        best = np.minimum.accumulate(history)
        assert np.all(history <= best * 1.05 + 1e-12)
        assert history[-1] < history[0]

    def test_separable_toy_reaches_full_accuracy(self):
        data = gen_gaussian_mixture(2, 12, 4, 0.2, seed=5)  # well separated
        p = train_sgd(init_params([4, 8, 2], seed=6), data, lr=0.1,
                      epochs=200, batch=6, seed=7)
        assert accuracy(forward_batch(p, data.inputs), data.labels) == 1.0

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_single_batch_epoch_is_mean_loss_gradient_step(self, activation):
        # training's backward pass against the finite-difference-checked
        # loss_param_gradient: one epoch in one batch is one step of the mean
        rng = np.random.default_rng(30)
        data = gen_gaussian_mixture(3, 4, 5, 0.5, seed=31)
        p = init_params([5, 9, 7, 3], seed=32, activation=activation)
        p = p.with_theta(p.theta + 0.3 * rng.normal(size=p.param_count))
        lr = 0.1
        out = train_sgd(p, data, lr=lr, epochs=1, batch=data.size, seed=33)
        mean_grad = np.mean([
            loss_param_gradient(p, x, y, "cross_entropy")
            for x, y in zip(data.inputs, data.labels)
        ], axis=0)
        step = (p.theta - out.theta) / lr
        np.testing.assert_allclose(step, mean_grad, rtol=1e-12,
                                   atol=1e-12 * np.abs(mean_grad).max())

    def test_divergence_detected(self):
        # positive inputs + enormous relu weights overflow the forward pass
        rng = np.random.default_rng(8)
        data = LabeledDataset(np.abs(rng.normal(size=(8, 4))) + 0.5,
                              np.array([0, 1] * 4), 2)
        p = init_params([4, 6, 2], seed=9, activation="relu")
        p = p.with_theta(np.full_like(p.theta, 1e200))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(Divergence):
                train_sgd(p, data, lr=0.1, epochs=3, batch=4, seed=10)

    def test_inputs_of_wrong_width_are_dim_mismatch(self):
        # 10-wide inputs for a 5-input net are refused before any batch runs
        data = gen_gaussian_mixture(3, 4, 10, 0.5, seed=11)
        with pytest.raises(DimMismatch):
            train_sgd(init_params([5, 12, 3], seed=12), data, lr=0.1,
                      epochs=1, batch=4, seed=13)


def reference_logit_jacobian(params, xb):
    """Per-batch (n, C, P) assembly through an outer-product temporary.

    The layout extract_features used to copy from, batch by batch; it now
    fills its (C, n, P) rows in place and must match this bitwise.
    """
    n, c = xb.shape[0], params.class_count
    grads = np.empty((n, c, params.param_count))
    for pos, dz, a in positioned_backprop(params, xb):
        fan_out, fan_in = dz.shape[2], a.shape[1]
        w_end = pos + fan_out * fan_in
        gw = dz[:, :, :, None] * a[:, None, None, :]
        grads[:, :, pos:w_end] = gw.reshape(n, c, fan_out * fan_in)
        grads[:, :, w_end : w_end + fan_out] = dz
    return grads


class TestExtractFeatures:
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_in_place_fill_matches_reference_bitwise(self, activation):
        rng = np.random.default_rng(21)
        p = init_params([5, 9, 7, 4], seed=22, activation=activation)
        # nonzero biases so relu units sit on both sides of the kink
        p = p.with_theta(p.theta + 0.3 * rng.normal(size=p.param_count))
        for n in N_AROUND_ROW_BATCH:
            x = rng.normal(size=(n, 5))
            rows = class_blocks(extract_features(p, x, rng.integers(0, 4, size=n)).per_class)
            for start in range(0, n, ROW_BATCH):  # first or last batch may be partial
                ref = reference_logit_jacobian(p, x[start : start + ROW_BATCH])
                np.testing.assert_array_equal(rows[:, start : start + ROW_BATCH],
                                              ref.transpose(1, 0, 2))

    def test_peak_memory_is_the_output(self):
        # the output is one class block at a time: extraction keeps each
        # batch's backward-pass factors, dz (n, C, fan_out) and a (n, fan_in)
        # per layer, and a block is filled from them with no other array
        sizes = [8, 40, 30, 5]
        p = init_params(sizes, seed=23)
        rng = np.random.default_rng(24)
        x = rng.normal(size=(4 * ROW_BATCH, 8))
        labels = rng.integers(0, 5, size=4 * ROW_BATCH)
        tracemalloc.start()
        try:
            feats = extract_features(p, x, labels)
            block = feats.per_class[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        factors = x.itemsize * x.shape[0] * (sizes[-1] * sum(sizes[1:]) + sum(sizes[:-1]))
        assert peak <= 1.15 * (block.nbytes + factors)

    def test_single_point_matches_gradient_rows(self):
        p = init_params([4, 5, 3], seed=10)
        x = np.random.default_rng(11).normal(size=(1, 4))
        feats = extract_features(p, x, np.array([2]))
        jac = per_logit_gradient(p, x[0])
        for c in range(3):
            np.testing.assert_allclose(feats.per_class[c][0], jac[c], atol=1e-14)

    def test_permutation_equivariance(self):
        p = init_params([3, 5, 2], seed=11)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(6, 3))
        y = np.array([0, 1, 0, 1, 1, 0])
        perm = rng.permutation(6)
        a = extract_features(p, x, y)
        b = extract_features(p, x[perm], y[perm])
        for c in range(2):
            np.testing.assert_allclose(b.per_class[c], a.per_class[c][perm],
                                       atol=1e-14)

    def test_kernel_matches_double_loop(self):
        # 20-point toy: gram of features equals explicit pairwise inner products
        p = init_params([4, 6, 3], seed=12)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(20, 4))
        feats = extract_features(p, x, rng.integers(0, 3, size=20))
        for c in range(3):
            phi = feats.per_class[c]
            gram = phi @ phi.T
            oracle = np.empty((20, 20))
            for i in range(20):
                for j in range(20):
                    gi = per_logit_gradient(p, x[i])[c]
                    gj = per_logit_gradient(p, x[j])[c]
                    oracle[i, j] = gi @ gj
            np.testing.assert_allclose(gram, oracle, rtol=1e-10, atol=1e-12)

    def test_logits_stored(self):
        p = init_params([3, 4, 2], seed=13)
        x = np.random.default_rng(14).normal(size=(5, 3))
        feats = extract_features(p, x, np.zeros(5, dtype=int))
        np.testing.assert_allclose(feats.model_logits, forward_batch(p, x),
                                   atol=1e-14)


class TestSmallHelpers:
    def test_one_hot(self):
        oh = one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(oh, np.eye(3)[[0, 2, 1]])

    def test_accuracy_and_loss_sane(self):
        data = gen_gaussian_mixture(2, 5, 3, 0.3, seed=16)
        p = init_params([3, 4, 2], seed=17)
        acc = accuracy(forward_batch(p, data.inputs), data.labels)
        assert 0.0 <= acc <= 1.0
        assert cross_entropy(p, data) > 0.0

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_act_grad_from_outputs_equals_the_pre_activation_form(self, activation):
        # backprop reads the slope off the stored activations a = act(z);
        # it must be the bits the derivative evaluated at z gives
        z = np.random.default_rng(18).normal(scale=3.0, size=(64, 33))
        z[0, :6] = [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0]
        if activation == "tanh":
            t = np.tanh(z)
            at_z = 1.0 - t * t
        else:
            at_z = (z > 0.0).astype(np.float64)
        got = _act_grad(_act(z, activation), activation)
        assert got.dtype == np.float64
        assert got.tobytes() == at_z.tobytes()
