"""End-to-end orchestration: task preparation, method evaluation, sweeps.

This is the glue the CLI subcommands and the acceptance harness share. A
"task" bundles the synthetic classification problem, the trained network,
and sketched gradient features for train and test splits. Every stage
draws its seed by hashing (root seed, stage name, cell index), so any
stage can be re-run in isolation and still line up with a full run.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import baselines, distill, kernel, krr, metrics, theory
from .errors import DimMismatch, InputError
from .io import ReportRow, RunConfig
from .sketch import SketchOperator, jl_dimension, sample_orthonormal
from .tangent import (
    GradientFeatures,
    LabeledDataset,
    MlpParams,
    SKETCHED,
    _sample_set,
    _sketched_logit_jacobian,
    gen_gaussian_mixture,
    init_params,
    train_sgd,
)


def derive_seed(root_seed: int, stage: str, index: int = 0) -> int:
    """Stable 63-bit seed from (root seed, stage name, cell index)."""
    digest = hashlib.sha256(f"{root_seed}:{stage}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass
class Task:
    cfg: RunConfig
    train: LabeledDataset
    test: LabeledDataset
    model: MlpParams
    sketch_op: SketchOperator
    train_feats: GradientFeatures  # sketched
    test_feats: GradientFeatures  # sketched


def split_mixture(cfg: RunConfig, seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """One mixture draw split class-by-class into train and test halves.

    Both splits share identical class means because they come from a single
    generator call.
    """
    c = cfg.class_count
    per_train = cfg.n_train // c
    per_test = cfg.n_test // c
    full = gen_gaussian_mixture(c, per_train + per_test, cfg.input_dim, cfg.spread, seed)
    train_idx = []
    test_idx = []
    per_total = per_train + per_test
    for ci in range(c):
        start = ci * per_total
        train_idx.extend(range(start, start + per_train))
        test_idx.extend(range(start + per_train, start + per_total))
    tr = np.array(train_idx)
    te = np.array(test_idx)
    train = LabeledDataset(full.inputs[tr], full.labels[tr], c)
    test = LabeledDataset(full.inputs[te], full.labels[te], c)
    return train, test


def sketched_features(
    params: MlpParams, inputs, labels, op: SketchOperator, batch: int = 32
) -> GradientFeatures:
    """Extract per-logit gradients and sketch them batch by batch.

    Equivalent to extract_features followed by project_features but never
    materializes a raw gradient row: the sketch is contracted layer by
    layer inside the backward pass, so the cost per sample has no C * P
    factor, which matters once P is in the tens of thousands.
    """
    xb, soft, logits = _sample_set(params, inputs, labels)
    if op.source_dim != params.param_count:
        raise DimMismatch(
            f"sketch expects width {op.source_dim}, model has {params.param_count} parameters"
        )
    n = xb.shape[0]
    out = np.empty((params.class_count, n, op.target_dim))
    for start in range(0, n, batch):
        stop = min(start + batch, n)
        sk = _sketched_logit_jacobian(params, xb[start:stop], op.q)  # (b, C, k)
        out[:, start:stop, :] = (op.scale * sk).transpose(1, 0, 2)
    return GradientFeatures(
        per_class=out, labels=soft, dim_kind=SKETCHED, model_logits=logits
    )


def sketch_width(cfg: RunConfig, param_count: int) -> int:
    k = cfg.k_sketch if cfg.k_sketch is not None else jl_dimension(cfg.n_train, cfg.eps_jl)
    return min(int(k), param_count)


def prepare_task(cfg: RunConfig, root_seed: int) -> Task:
    """Data, trained model, and sketched features for one root seed."""
    train, test = split_mixture(cfg, derive_seed(root_seed, "gen-data"))
    params = init_params(cfg.layer_sizes, derive_seed(root_seed, "init"), cfg.activation)
    model = train_sgd(
        params,
        train,
        lr=cfg.train_lr,
        epochs=cfg.train_epochs,
        batch=cfg.train_batch,
        seed=derive_seed(root_seed, "train"),
    )
    op = sample_orthonormal(
        model.param_count, sketch_width(cfg, model.param_count), derive_seed(root_seed, "sketch")
    )
    train_feats = sketched_features(model, train.inputs, train.labels, op)
    test_feats = sketched_features(model, test.inputs, test.labels, op)
    return Task(
        cfg=cfg,
        train=train,
        test=test,
        model=model,
        sketch_op=op,
        train_feats=train_feats,
        test_feats=test_feats,
    )


# -------------------------------------------------------------- evaluation

def evaluate_gradient_set(
    basis: np.ndarray,
    targets: np.ndarray,
    task: Task,
    method: str,
    seed: int,
) -> ReportRow:
    """Fit per-class ridge regressors on the set and score them on test.

    Fidelity/accuracy/MSE come from test predictions against the base
    model; coverage and reconstruction error measure how much of the
    (centered) training gradient energy the set's row span retains; the
    conditioning columns summarize the fitted kernels themselves.
    """
    cfg = task.cfg
    model = krr.fit(
        basis, targets, lambda_reg=cfg.lambda_reg, scale_kind=cfg.scale_kind
    )
    pred = krr.predict(model, task.test_feats)
    fid = metrics.fidelity(pred, task.test_feats.model_logits)
    acc = metrics.accuracy(pred, task.test.labels)
    err = metrics.mse(pred, task.test_feats.model_logits)

    c = task.train_feats.class_count
    coverage = np.empty(c)
    recon = np.empty(c)
    condition = np.empty(c)
    min_eig = np.empty(c)
    for ci in range(c):
        v = metrics.orthonormal_rows_basis(basis[:, :, ci])
        phi = task.train_feats.per_class[ci]
        coverage[ci], recon[ci] = metrics.subspace_scores(phi, v)
        condition[ci], min_eig[ci] = kernel.spectrum_conditioning(model.eig_values[ci])
    s = basis.shape[0]
    return ReportRow(
        method=method,
        seed=seed,
        s=s,
        compression=distill.compression_ratio(task.train_feats.size, s),
        fidelity=fid,
        accuracy=acc,
        mse=err,
        coverage=float(coverage.mean()),
        recon_error=float(recon.mean()),
        condition=float(condition.mean()),
        min_eig=float(min_eig.min()),
    )


def _selection_rows(task: Task, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    basis = krr.features_as_basis(task.train_feats)[indices]
    targets = task.train_feats.model_logits[indices]
    return basis, targets


def run_method(
    task: Task,
    method: str,
    seed: int,
    budget: int | None = None,
    h: int | None = None,
    tau_v: float | None = None,
    tau_g: float | None = None,
    label: str | None = None,
) -> ReportRow:
    """Produce one report row for a method at the given settings.

    For "distill" the budget is an optional cap; for the selection
    baselines it is mandatory (they need a target size). "full" ignores it.
    """
    cfg = task.cfg
    feats = task.train_feats
    if method == "distill":
        dg, _ = distill.distill(
            feats,
            h=h if h is not None else cfg.h,
            tau_v=tau_v if tau_v is not None else cfg.tau_v,
            tau_g=tau_g if tau_g is not None else cfg.tau_g,
            eps_qr=cfg.eps_qr,
            seed=seed,
            max_size=budget,
        )
        basis, targets = dg.phi_hat, dg.y_hat
    elif method == "full":
        basis = krr.features_as_basis(feats)
        targets = feats.model_logits
    else:
        if budget is None:
            raise InputError(f"method {method!r} needs an explicit budget")
        if method == "random":
            sel = baselines.select_random(feats.size, budget, seed)
        elif method == "leverage":
            stack = kernel.build_stack(feats, cfg.scale_kind)
            kbar = kernel.average_kernel(stack)
            sel = baselines.select_leverage(kbar, budget, min(budget, feats.size), seed)
        elif method == "fps":
            sel = baselines.select_fps(baselines.flatten_rows(feats.per_class), budget, seed)
        elif method == "kmeans":
            sel = baselines.select_kmeans(
                baselines.flatten_rows(feats.per_class), budget, seed
            )
        else:
            raise InputError(f"unknown method {method!r}")
        basis, targets = _selection_rows(task, sel.indices)
    return evaluate_gradient_set(basis, targets, task, label or method, seed)


# ------------------------------------------------------------------- sweep

def sweep_rows(cfg: RunConfig, jobs: int = 1) -> list[ReportRow]:
    """One row per (H, tau_v, tau_g, method, seed) grid cell.

    The distill run of a cell fixes the budget its baseline cells use, so
    every method is compared at matched size. Cells are computed possibly
    in parallel but always emitted in grid order, which keeps the CSV
    byte-stable across runs and worker counts.
    """
    rows: list[ReportRow] = []
    for root_seed in cfg.sweep_seeds:
        task = prepare_task(cfg, root_seed)
        rows.append(run_method(task, "full", derive_seed(root_seed, "full"), label="full"))
        cells = [
            (h, tv, tg)
            for h in cfg.sweep_h
            for tv in cfg.sweep_tau_v
            for tg in cfg.sweep_tau_g
        ]

        def run_cell(args):
            idx, (h, tv, tg) = args
            tag = f"[H={h},tv={tv:g},tg={tg:g}]"
            cell_rows = [
                run_method(
                    task,
                    "distill",
                    derive_seed(root_seed, "distill", idx),
                    h=h,
                    tau_v=tv,
                    tau_g=tg,
                    label=f"distill{tag}",
                )
            ]
            budget = cell_rows[0].s
            for method in cfg.methods:
                if method in ("distill", "full"):
                    continue
                cell_rows.append(
                    run_method(
                        task,
                        method,
                        derive_seed(root_seed, method, idx),
                        budget=budget,
                        label=f"{method}{tag}",
                    )
                )
            return cell_rows

        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                for cell_rows in pool.map(run_cell, enumerate(cells)):
                    rows.extend(cell_rows)
        else:
            for args in enumerate(cells):
                rows.extend(run_cell(args))
    return rows


# ----------------------------------------------------------- theory checks

@dataclass(frozen=True)
class TheoryCheck:
    name: str
    value: float
    threshold: float
    passed: bool


def theory_battery(seed: int) -> list[TheoryCheck]:
    """Seeded battery over the descent and eigenspace guarantees."""
    rng = np.random.default_rng(derive_seed(seed, "verify-theory"))
    checks = []

    p, r = 40, 8
    q, _ = np.linalg.qr(rng.normal(size=(p, r)))
    grads = rng.normal(size=(12, p))
    probe = theory.make_probe(grads, smoothness=2.5, step=0.1, basis=q)
    violation = theory.quadratic_minimizer_check(probe, trials=200, seed=seed)
    checks.append(TheoryCheck("surrogate_minimizer_unimprovable", violation, 1e-12, violation <= 1e-12))

    worst_slack = np.inf
    for _ in range(50):
        basis_q, _ = np.linalg.qr(rng.normal(size=(p, r)))
        smooth = float(rng.uniform(0.5, 4.0))
        eigs = rng.uniform(0.0, smooth, size=p)
        rot, _ = np.linalg.qr(rng.normal(size=(p, p)))
        a = rot @ np.diag(eigs) @ rot.T
        b = rng.normal(size=p)
        pr = theory.make_probe(b[None, :], smoothness=smooth, step=0.1, basis=basis_q)
        achieved, bound, holds = theory.decrease_bound_check(pr, 0.5 * (a + a.T), b)
        worst_slack = min(worst_slack, achieved - bound)
        if not holds:
            break
    checks.append(TheoryCheck("decrease_bound_holds", float(worst_slack), -1e-10, worst_slack >= -1e-10))

    tight_a = 2.5 * np.eye(p)
    achieved, bound, _ = theory.decrease_bound_check(probe, tight_a, grads[0])
    gap = abs(achieved - bound)
    checks.append(TheoryCheck("decrease_bound_tight_at_identity", gap, 1e-10, gap <= 1e-10))

    g_small = rng.normal(size=(60, 10))
    moment = (g_small.T @ g_small) / 60.0
    _, margin = theory.pca_optimality_bruteforce(moment, r=3, trials=2000, seed=seed + 1)
    checks.append(TheoryCheck("top_eigenspace_optimal", float(margin), -1e-10, margin >= -1e-10))

    sample_mean, trace_form = theory.residual_two_ways(g_small, np.linalg.qr(rng.normal(size=(10, 3)))[0])
    agree = abs(sample_mean - trace_form)
    checks.append(TheoryCheck("residual_two_ways_agree", agree, 1e-10, agree <= 1e-10))
    return checks
