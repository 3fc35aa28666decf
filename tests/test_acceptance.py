"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Each test is a single pass/fail line under `pytest -v`. These intentionally
re-derive expected values with brute force or closed forms rather than
trusting library internals, and the heavier ones pin wall-clock budgets so
a performance regression fails loudly instead of rotting quietly.
"""

import json
import time

import numpy as np

from helpers import feats_from_blocks

from dntk import distill, pipeline, theory
from dntk.cli import main
from dntk.cluster import spectral_cluster
from dntk.io import RunConfig
from dntk.kernel import average_kernel, build_stack, conditioning
from dntk.krr import fit, predict
from dntk.metrics import (
    energy_gap_decomposition,
    fidelity,
    kernel_error_bound_check,
    nystrom_kernel,
)
from dntk.numerics import ridge_solve_direct, sym_eig, thin_svd
from dntk.sketch import jl_dimension, sample_orthonormal
from dntk.tangent import chain_rule_check, forward, init_params, per_logit_gradient


def random_projector(rng, dim, rank):
    q, _ = np.linalg.qr(rng.normal(size=(dim, rank)))
    return q @ q.T


def test_01_eigenpair_norm_identity():
    """Every eigenpair (lam, u) of (1/D) Phi Phi^T has ||Phi^T u||^2 = D lam."""
    t0 = time.time()
    m, d = 64, 32
    for seed in range(10):
        phi = np.random.default_rng(seed).normal(size=(m, d))
        # all m eigenpairs, with the null space carrying an exact zero: the
        # m - d trailing eigenvalues of the rank-d kernel are 0, not eigh noise
        u_full, sing, _ = np.linalg.svd(phi, full_matrices=True)
        lam_full = np.concatenate([sing**2 / d, np.zeros(m - d)])
        for lam, u in zip(lam_full, u_full.T):
            lhs = float((phi.T @ u) @ (phi.T @ u))
            assert abs(lhs - d * lam) <= 1e-8 * max(d * lam, 1e-12)
        eig = sym_eig(phi @ phi.T / d)
        assert np.max(np.abs(eig.values[:d] - lam_full[:d])) <= 1e-10 * lam_full[0]
    assert time.time() - t0 < 1.0


def test_02_krr_matches_direct_solve():
    """Spectral ridge solve equals a dense factorization; lambda=0 interpolates."""
    t0 = time.time()
    rng = np.random.default_rng(10)
    for trial in range(20):
        n = int(rng.integers(20, 201))
        c = 3
        basis = rng.normal(size=(n, 2 * n, c)).transpose(2, 0, 1)
        targets = rng.normal(size=(n, c))
        model = fit(basis, targets, lambda_reg=1e-3, scale_kind="none")
        for ci in range(c):
            gram = basis[ci] @ basis[ci].T
            direct = ridge_solve_direct(gram, targets[:, ci], 1e-3)
            err = np.linalg.norm(model.alpha[:, ci] - direct)
            assert err <= 1e-8 * max(np.linalg.norm(direct), 1e-12)
        interp = fit(basis, targets, lambda_reg=0.0, scale_kind="none")
        conds = [
            conditioning(basis[ci] @ basis[ci].T)[0] for ci in range(c)
        ]
        assert max(conds) < 1e8  # 2n features keep the gram well-conditioned
        pred = predict(interp, basis)
        assert fidelity(pred, targets) == 1.0
    assert time.time() - t0 < 5.0


def test_03_nystrom_identity_and_error_bound():
    """Projector and classic inducing-point kernels agree; F-norm bound holds."""
    t0 = time.time()
    rng = np.random.default_rng(11)
    for _ in range(100):
        m, d = int(rng.integers(5, 40)), int(rng.integers(3, 30))
        phi = rng.normal(size=(m, d))
        inducing = rng.normal(size=(int(rng.integers(1, m + 1)), d))
        _, gap = nystrom_kernel(phi, inducing)
        assert gap < 1e-8
        pi = random_projector(rng, d, int(rng.integers(1, d + 1)))
        lhs, rhs, holds = kernel_error_bound_check(phi, pi)
        assert holds and lhs <= rhs + 1e-9 * max(rhs, 1.0)
    assert time.time() - t0 < 5.0


def test_04_energy_gap_decomposition():
    """Loss = spectral tail + gap, gap >= 0, and gap = 0 at the PCA projector."""
    t0 = time.time()
    rng = np.random.default_rng(12)
    for _ in range(100):
        m, d = int(rng.integers(5, 40)), int(rng.integers(3, 25))
        phi = rng.normal(size=(m, d))
        r = int(rng.integers(1, d + 1))
        loss, tail, gap = energy_gap_decomposition(phi, random_projector(rng, d, r))
        assert abs(loss - (tail + gap)) < 1e-8 * max(loss, 1.0)
        assert gap >= -1e-9
        star = thin_svd(phi).right[:, :r]
        _, _, gap_star = energy_gap_decomposition(phi, star @ star.T)
        assert abs(gap_star) < 1e-8
    assert time.time() - t0 < 5.0


def test_05_descent_surrogate_guarantees():
    """In-span surrogate minimizer is unimprovable; decrease bound holds, tight at L*I."""
    t0 = time.time()
    rng = np.random.default_rng(13)
    p, r, smooth = 30, 6, 2.0
    q, _ = np.linalg.qr(rng.normal(size=(p, r)))
    probe = theory.make_probe(rng.normal(size=(8, p)), smooth, step=0.25, basis=q)
    assert theory.quadratic_minimizer_check(probe, trials=1000, seed=0) <= 1e-12
    for _ in range(100):
        eigs = rng.uniform(0.0, smooth, size=p)
        rot, _ = np.linalg.qr(rng.normal(size=(p, p)))
        quad_a = rot @ np.diag(eigs) @ rot.T
        achieved, bound, holds = theory.decrease_bound_check(
            probe, 0.5 * (quad_a + quad_a.T), rng.normal(size=p)
        )
        assert holds and achieved - bound >= -1e-10
    achieved, bound, _ = theory.decrease_bound_check(
        probe, smooth * np.eye(p), rng.normal(size=p)
    )
    assert abs(achieved - bound) <= 1e-10
    assert time.time() - t0 < 10.0


def test_06_top_eigenspace_brute_force():
    """Top-r eigenspace beats 10^4 random subspaces; residual formulas agree."""
    t0 = time.time()
    rng = np.random.default_rng(14)
    grads = rng.normal(size=(40, 12))
    moment = grads.T @ grads / 40.0
    for r in (1, 2, 3, 4):
        _, margin = theory.pca_optimality_bruteforce(moment, r=r, trials=10_000, seed=r)
        assert margin >= -1e-10
    sample_mean, trace_form = theory.residual_two_ways(
        grads, np.linalg.qr(rng.normal(size=(12, 4)))[0]
    )
    assert abs(sample_mean - trace_form) <= 1e-10
    assert time.time() - t0 < 30.0


def test_07_jl_distance_preservation():
    """At the JL target width, >= 95% of squared pair distances stay within 30%."""
    t0 = time.time()
    rng = np.random.default_rng(15)
    p, pairs, eps = 1000, 200, 0.3
    k = jl_dimension(2 * pairs, eps)
    assert k < p
    op = sample_orthonormal(p, k, seed=7)
    u = rng.normal(size=(pairs, p))
    v = rng.normal(size=(pairs, p))
    su = op.scale * (u @ op.q)
    sv = op.scale * (v @ op.q)
    ratios = ((su - sv) ** 2).sum(axis=1) / ((u - v) ** 2).sum(axis=1)
    assert np.mean((ratios >= 1 - eps) & (ratios <= 1 + eps)) >= 0.95

    iso = sample_orthonormal(120, 120, seed=8)
    x = rng.normal(size=(30, 120))
    sx = iso.scale * (x @ iso.q)
    assert np.max(np.abs((sx**2).sum(axis=1) - (x**2).sum(axis=1))) <= 1e-10
    assert time.time() - t0 < 5.0


def test_08_gradients_match_finite_differences():
    """Analytic per-logit gradients track central FD; chain rule is exact."""
    t0 = time.time()
    rng = np.random.default_rng(16)
    params = init_params([6, 10, 4], seed=3)
    fd_step = 1e-5
    for probe in range(50):
        x = rng.normal(size=6)
        ci = probe % 4
        grad = per_logit_gradient(params, x)[ci]
        fd = np.empty_like(grad)
        for j in range(params.param_count):
            theta = params.theta.copy()
            theta[j] += fd_step
            up = forward(params.with_theta(theta), x)[ci]
            theta[j] -= 2 * fd_step
            dn = forward(params.with_theta(theta), x)[ci]
            fd[j] = (up - dn) / (2 * fd_step)
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)
        assert rel.max() < 1e-4

    for loss in ("squared", "cross_entropy"):
        for probe in range(20):
            x = rng.normal(size=6)
            assert chain_rule_check(params, x, probe % 4, loss) < 1e-10
    assert time.time() - t0 < 10.0


def test_09_distillation_beats_baselines():
    """Mean test fidelity: distilled sets win every budget, match full at s=50."""
    t0 = time.time()
    cfg = RunConfig(
        seed=0,
        layer_sizes=[16, 96, 96, 10],
        n_train=500,
        n_test=500,
        spread=0.8,
        train_lr=0.1,
        train_epochs=30,
        train_batch=32,
        k_sketch=256,
        h=5,
        tau_v=0.99,
        tau_g=0.5,
        lambda_reg=1e-4,
    )
    budgets = (5, 10, 25, 50)
    rivals = ("random", "fps", "leverage", "kmeans")
    fid = {}
    full = []
    for root in range(5):
        task = pipeline.prepare_task(cfg, root)
        full.append(
            pipeline.run_method(task, "full", pipeline.derive_seed(root, "full")).fidelity
        )
        for s in budgets:
            row = pipeline.run_method(
                task, "distill", pipeline.derive_seed(root, "distill", s), budget=s
            )
            assert row.s == s
            fid.setdefault(("distill", s), []).append(row.fidelity)
            for m in rivals:
                fid.setdefault((m, s), []).append(
                    pipeline.run_method(
                        task, m, pipeline.derive_seed(root, m, s), budget=s
                    ).fidelity
                )
    for s in budgets:
        ours = np.mean(fid[("distill", s)])
        for m in rivals:
            assert ours >= np.mean(fid[(m, s)]), f"{m} wins at s={s}"
    assert np.mean(full) - np.mean(fid[("distill", 50)]) <= 0.02
    assert time.time() - t0 < 600.0


def test_10_planted_cross_block_mode_lands_in_gap_set():
    """Blocks stay locally contained while the planted global mode is flagged."""
    t0 = time.time()
    n_per, blocks, dim = 20, 4, 64
    amp_c, decoy_e, conn_e, sigma, tau_v = 2.0**0.5, 0.32, 0.2, 0.01, 0.99
    rng = np.random.default_rng(0)
    frame, _ = np.linalg.qr(rng.normal(size=(dim, 2 * blocks + 1)))
    centers, decoys = frame[:, :blocks].T, frame[:, blocks : 2 * blocks].T
    connector = frame[:, 2 * blocks]
    half, quarter = n_per // 2, n_per // 4
    conn_pat = np.concatenate([np.ones(half), -np.ones(half)])
    decoy_pat = np.concatenate([np.ones(quarter), -np.ones(quarter)] * 2)
    rows = np.array(
        [
            amp_c * centers[h]
            + (decoy_e / n_per) ** 0.5 * decoy_pat[i] * decoys[h]
            + (conn_e / n_per) ** 0.5 * conn_pat[i] * connector
            + sigma * rng.normal(size=dim)
            for h in range(blocks)
            for i in range(n_per)
        ]
    )
    planted = np.tile(conn_pat, blocks)
    planted /= np.linalg.norm(planted)

    feats = feats_from_blocks([rows])
    _, report = distill.distill(feats, h=blocks, tau_v=tau_v, tau_g=0.5, seed=0)

    kbar = average_kernel(build_stack(feats, "inv_k"))
    partition = spectral_cluster(kbar, blocks, seed=0)
    global_eig = sym_eig(kbar)
    local_systems = distill.local_eigensystems(kbar, partition, tau_v)
    contain = distill.weighted_local_containment(
        global_eig, report.r_global, partition, local_systems
    )
    assert contain.min() >= 0.99

    cos = np.abs(global_eig.vectors[:, : report.r_global].T @ planted)
    j_star = int(np.argmax(cos))
    assert cos[j_star] >= 0.9  # the planted direction survives as an eigenvector
    assert j_star in report.gap_set
    assert time.time() - t0 < 30.0


def test_11_sweep_is_byte_deterministic(tmp_path):
    """Two sweeps from one seed write byte-identical report CSVs."""
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(
            json.dumps(
                dict(
                    seed=5,
                    layer_sizes=[5, 12, 3],
                    n_train=24,
                    n_test=12,
                    spread=0.4,
                    train_lr=0.05,
                    train_epochs=10,
                    train_batch=8,
                    k_sketch=16,
                    lambda_reg=1e-4,
                    out_dir=str(out),
                    methods=["distill", "random", "leverage"],
                    sweep_h=[2, 3],
                    sweep_tau_v=[0.9, 0.95],
                    sweep_tau_g=[0.5],
                    sweep_seeds=[5],
                )
            )
        )
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        outputs.append((out / "sweep.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 1 + 1 + 4 * 3  # header, full, 4 cells x 3
