"""End-to-end orchestration: task preparation, method evaluation, sweeps.

This is the glue the CLI subcommands and the acceptance harness share:
each stage maps the config to its call in one function here, which the
staged CLI and the in-process task and sweep both run. A "task" bundles
the synthetic classification problem, the trained network, and sketched
gradient features for train and test splits; the sketch module applies the
sketch on both the in-process and the staged path, to raw rows from the
live backward pass or from a raw gradient file. Every stage draws its
seed by hashing (root seed, stage name, cell index), so any stage can be
re-run in isolation and still line up with a full run. Every task holds
the cluster.KernelSpectra made for its training features, which distill
and the baselines read the averaged kernel, its decompositions and its
eigen-coordinates from, so each decomposition is computed once per task; a
sweep's cells inherit their root's holder.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import baselines, distill, kernel, krr, metrics, theory
from .cluster import KernelSpectra
from .errors import InputError, ShapeMismatch
from .io import ReportRow, RunConfig
from .sketch import SketchOperator, SketchRecord, _fused_sketch, jl_dimension, sample_orthonormal
from .tangent import (
    ClassRows,
    GradientFeatures,
    LabeledDataset,
    MlpParams,
    _sample_set,
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
    """One root seed's problem, network and sketched features.

    sketch_op is the sketch's record, not its P x k matrix: once both splits
    are sketched nothing reads the matrix, and at wide P it would be the
    largest array the task holds. sample_orthonormal redraws it from the
    record when a caller needs it. spectra is the holder made for
    train_feats that every run_method call reads. A task made from another
    by dataclasses.replace shares it; one whose train_feats were replaced
    is refused by every method but full.
    """

    cfg: RunConfig
    train: LabeledDataset
    test: LabeledDataset
    model: MlpParams
    sketch_op: SketchRecord
    train_feats: GradientFeatures  # sketched
    test_feats: GradientFeatures  # sketched
    spectra: KernelSpectra


def split_mixture(cfg: RunConfig, seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """One mixture draw split class-by-class into train and test halves.

    Both splits share identical class means because they come from a single
    generator call.
    """
    c = cfg.class_count
    per_train = cfg.n_train // c
    full = gen_gaussian_mixture(c, per_train + cfg.n_test // c, cfg.input_dim, cfg.spread, seed)
    ids = np.arange(full.size).reshape(c, -1)  # the mixture's samples come class by class
    tr, te = ids[:, :per_train].ravel(), ids[:, per_train:].ravel()
    train = LabeledDataset(full.inputs[tr], full.labels[tr], c)
    test = LabeledDataset(full.inputs[te], full.labels[te], c)
    return train, test


def sketched_features(params: MlpParams, inputs, labels, op: SketchOperator) -> GradientFeatures:
    """Per-logit gradients of a sample set, sketched batch by batch.

    extract_features followed by project_features, and the same bits, in
    one call: the live backward pass's ClassRows goes straight to
    sketch._fused_sketch, which contracts its factors batch by batch, layer
    by layer, in its own workspace and drops each batch before the next.
    """
    xb, ids, logits = _sample_set(params, inputs, labels)
    return GradientFeatures(_fused_sketch(ClassRows.of_backprop(params, xb), op), ids, logits)


def sketch_width(cfg: RunConfig, param_count: int) -> int:
    k = cfg.k_sketch if cfg.k_sketch is not None else jl_dimension(cfg.n_train, cfg.eps_jl)
    return min(int(k), param_count)


def train_model(cfg: RunConfig, train: LabeledDataset, root_seed: int) -> MlpParams:
    """The base network: initialized and trained with SGD at the config's settings."""
    params = init_params(cfg.layer_sizes, derive_seed(root_seed, "init"), cfg.activation)
    return train_sgd(
        params,
        train,
        lr=cfg.train_lr,
        epochs=cfg.train_epochs,
        batch=cfg.train_batch,
        seed=derive_seed(root_seed, "train"),
    )


def sketch_operator(cfg: RunConfig, param_count: int, root_seed: int) -> SketchOperator:
    """The orthonormal sketch from param_count parameters to sketch_width."""
    return sample_orthonormal(
        param_count, sketch_width(cfg, param_count), derive_seed(root_seed, "sketch")
    )


def distill_features(
    feats: GradientFeatures,
    cfg: RunConfig,
    seed: int,
    budget: int | None = None,
    spectra: KernelSpectra | None = None,
) -> tuple[distill.DistilledGradients, distill.CoverageReport]:
    """Distill a feature set at the config's H, tau_v, tau_g and eps_qr,
    reading its kernel from spectra, made for feats (fresh when None)."""
    return distill.distill(
        feats,
        h=cfg.h,
        tau_v=cfg.tau_v,
        tau_g=cfg.tau_g,
        eps_qr=cfg.eps_qr,
        seed=seed,
        max_size=budget,
        spectra=spectra,
    )


def prepare_task(cfg: RunConfig, root_seed: int) -> Task:
    """Data, trained model, and sketched features for one root seed.

    The staged CLI runs the same stage functions, one per subcommand. The
    sketch matrix is drawn once, applied to both splits and dropped; the
    task keeps its record and a KernelSpectra made for its train_feats.
    """
    train, test = split_mixture(cfg, derive_seed(root_seed, "gen-data"))
    model = train_model(cfg, train, root_seed)
    op = sketch_operator(cfg, model.param_count, root_seed)
    train_feats = sketched_features(model, train.inputs, train.labels, op)
    test_feats = sketched_features(model, test.inputs, test.labels, op)
    return Task(
        cfg=cfg,
        train=train,
        test=test,
        model=model,
        sketch_op=op.record,
        train_feats=train_feats,
        test_feats=test_feats,
        spectra=KernelSpectra(train_feats),
    )


# -------------------------------------------------------------- evaluation

def class_scorer(train_feats: GradientFeatures, class_count: int, scale_kind: str):
    """(table, each): each(ci, rows, eig) fills column ci of the (4, C) table
    with class ci's coverage and reconstruction error of the (centered)
    training rows by the span of its fitted rows (metrics.span_scores), and
    the condition and minimum eigenvalue of their kernel, from eig, the
    eigensystem of their Gram that krr.fit or krr.class_eigensystems hands over.
    """
    if train_feats.class_count != class_count:
        raise ShapeMismatch(f"training features have {train_feats.class_count} classes, "
                            f"model has {class_count}")
    table = np.empty((4, class_count))

    def each(ci, rows, eig):
        factor = kernel.scale_factor(scale_kind, rows.shape[1])
        table[:2, ci] = metrics.span_scores(
            train_feats.per_class[ci], rows, eig.values, eig.vectors, factor
        )
        table[2:, ci] = kernel.spectrum_conditioning(eig.values)

    return table, each


def score_krr(
    model: krr.KrrModel,
    train_feats: GradientFeatures,
    pred: np.ndarray,
    test_labels: np.ndarray,
    test_logits: np.ndarray,
    method: str,
    seed: int,
    table: np.ndarray | None = None,
) -> ReportRow:
    """One report row for fitted per-class ridge regressors.

    Fidelity/accuracy/MSE compare pred, the (t, C) krr.predict logits at
    the test rows, with the base model's test_logits and the test_labels
    class ids, so the test rows need not be held while the training rows
    are. The other columns summarize a class_scorer table: the one krr.fit
    filled, or for None (a model read from a file) one filled here from
    krr.class_eigensystems of model.basis. Sweep and staged `evaluate` both
    score through here.
    """
    if table is None:
        table, each = class_scorer(train_feats, model.class_count, model.scale_kind)
        for args in krr.class_eigensystems(model.basis, model.scale_kind):
            each(*args)
    coverage, recon, condition, min_eig = table
    return ReportRow(
        method=method,
        seed=seed,
        s=model.size,
        compression=distill.compression_ratio(train_feats.size, model.size),
        fidelity=metrics.fidelity(pred, test_logits),
        accuracy=metrics.accuracy(pred, test_labels),
        mse=metrics.mse(pred, test_logits),
        coverage=float(coverage.mean()),
        recon_error=float(recon.mean()),
        condition=float(condition.mean()),
        min_eig=float(min_eig.min()),
    )


def evaluate_gradient_set(
    basis: np.ndarray,
    targets: np.ndarray,
    task: Task,
    method: str,
    seed: int,
) -> ReportRow:
    """Fit per-class ridge regressors on a (C, s, D) set and score them on
    test, each class as the fit decomposes it."""
    cfg = task.cfg
    table, each = class_scorer(task.train_feats, len(basis), cfg.scale_kind)
    model = krr.fit(basis, targets, cfg.lambda_reg, cfg.scale_kind, each)
    test = task.test_feats
    pred = krr.predict(model, test.per_class)
    return score_krr(model, task.train_feats, pred, test.labels, test.model_logits,
                     method, seed, table)


def select_baseline(
    feats: GradientFeatures,
    method: str,
    budget: int,
    seed: int,
    spectra: KernelSpectra | None = None,
) -> baselines.SelectionResult:
    """Pick `budget` training samples with one of baselines.METHODS.

    The one place a baseline name maps to its selector; the sweep and the
    staged select-baseline command both come through here. Leverage scores
    come from the eigenvectors of the averaged kernel, which no positive
    scale changes, so the holder's kbar serves, as for distill. fps and
    k-means pick on kbar's eigen-coordinates. spectra must be made for
    feats; a caller without a task, such as the staged command, leaves it
    None for a fresh holder.
    """
    spectra = KernelSpectra.for_features(feats, spectra)
    if method == "random":
        return baselines.select_random(feats.size, budget, seed)
    if method == "leverage":
        return baselines.select_leverage(
            spectra.kbar(), budget, min(budget, feats.size), seed, spectra
        )
    if method == "fps":
        return baselines.select_fps(spectra.coordinates(), budget, seed)
    if method == "kmeans":
        return baselines.select_kmeans(spectra.coordinates(), budget, seed)
    raise InputError(f"unknown method {method!r}")


def gradient_set(
    feats: GradientFeatures, picked: distill.DistilledGradients | np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """The (C, s, D) rows and (s, C) targets a method fits on: a distilled
    set's own, the rows and model logits of a baseline's sample ids, or all
    of feats for None. The sweep and the staged fit-krr both come through here."""
    if isinstance(picked, distill.DistilledGradients):
        return picked.phi_hat, picked.y_hat
    if picked is None:
        return feats.per_class, feats.model_logits
    return feats.per_class[:, picked], feats.model_logits[picked]


def run_method(
    task: Task,
    method: str,
    seed: int,
    budget: int | None = None,
    label: str | None = None,
) -> ReportRow:
    """Produce one report row for a method at the task config's settings.

    For "distill" the budget is an optional cap; for the selection
    baselines it is mandatory (they need a target size). "full" ignores it.
    Kernel decompositions and eigen-coordinates come from task.spectra.
    """
    feats, picked = task.train_feats, None
    if method == "distill":
        picked, _ = distill_features(feats, task.cfg, seed, budget, task.spectra)
    elif method != "full":
        if budget is None:
            raise InputError(f"method {method!r} needs an explicit budget")
        picked = select_baseline(feats, method, budget, seed, task.spectra).indices
    basis, targets = gradient_set(feats, picked)
    return evaluate_gradient_set(basis, targets, task, label or method, seed)


# ------------------------------------------------------------------- sweep

def sweep_rows(cfg: RunConfig, jobs: int = 1) -> list[ReportRow]:
    """One row per (H, tau_v, tau_g, method, seed) grid cell.

    The distill run of a cell fixes the budget its baseline cells use, so
    every method is compared at matched size. Cells are computed possibly
    in parallel but always emitted in grid order, which keeps the CSV
    byte-stable across runs and worker counts. Each cell is its root's
    task with another cfg, so the cells share the task's KernelSpectra: the
    averaged kernel and its Laplacian are decomposed once per root, not
    once per cell.
    """
    if jobs < 1:
        raise InputError(f"jobs must be at least 1, got {jobs}")
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
            cell = replace(task, cfg=replace(cfg, h=h, tau_v=tv, tau_g=tg))
            seed = derive_seed(root_seed, "distill", idx)
            cell_rows = [run_method(cell, "distill", seed, label=f"distill{tag}")]
            for method in cfg.methods:
                if method not in ("distill", "full"):
                    cell_rows.append(run_method(cell, method, derive_seed(root_seed, method, idx),
                                                budget=cell_rows[0].s, label=f"{method}{tag}"))
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
    """Seeded battery over the descent and eigenspace guarantees; any int seed works."""
    rng = np.random.default_rng(derive_seed(seed, "verify-theory"))
    checks = []

    p, r = 40, 8
    q, _ = np.linalg.qr(rng.normal(size=(p, r)))
    grads = rng.normal(size=(12, p))
    probe = theory.make_probe(grads, smoothness=2.5, step=0.1, basis=q)
    violation = theory.quadratic_minimizer_check(
        probe, trials=200, seed=derive_seed(seed, "verify-theory", 1))
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
    _, margin = theory.pca_optimality_bruteforce(
        moment, r=3, trials=2000, seed=derive_seed(seed, "verify-theory", 2))
    checks.append(TheoryCheck("top_eigenspace_optimal", float(margin), -1e-10, margin >= -1e-10))

    sample_mean, trace_form = theory.residual_two_ways(g_small, np.linalg.qr(rng.normal(size=(10, 3)))[0])
    agree = abs(sample_mean - trace_form)
    checks.append(TheoryCheck("residual_two_ways_agree", agree, 1e-10, agree <= 1e-10))
    return checks
