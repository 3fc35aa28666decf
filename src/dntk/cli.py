"""Command line front end.

Subcommands mirror the pipeline stages and exchange files through the io
module, so a run can stop and resume at any stage. Exit codes: 0 on
success, 1 on validation problems (bad flags, config, files), 2 when a
computation is numerically degenerate. Machine-readable failures land on
stderr as a single `error_code=<Name>` line followed by the message.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import baselines, distill as distill_mod, kernel, krr, metrics, pipeline
from .errors import DntkError, NumericalError
from .io import (
    ReportRow,
    RunConfig,
    read_config,
    read_dataset,
    read_distilled,
    read_gradients,
    read_krr,
    read_model,
    read_selection,
    read_sketch_meta,
    write_dataset,
    write_distilled,
    write_gradients,
    write_krr,
    write_model,
    write_report,
    write_selection,
    write_sketch_meta,
)
from .sketch import project_features, sample_orthonormal
from .tangent import SKETCHED, extract_features, init_params, train_sgd

FILES = {
    "train": "train.npz",
    "test": "test.npz",
    "model": "model.npz",
    "grads_train": "grads_train.dntk",
    "grads_test": "grads_test.dntk",
    "sketched_train": "sketched_train.dntk",
    "sketched_test": "sketched_test.dntk",
    "sketch_meta": "sketch.json",
    "kernel_stats": "kernel_stats.csv",
    "distilled": "distilled.npz",
    "krr": "krr_model.npz",
    "report": "report.csv",
    "sweep": "sweep.csv",
    "theory": "theory_checks.csv",
}


def _load_config(args) -> RunConfig:
    cfg = read_config(args.config) if args.config else RunConfig().validate()
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg


def _out_dir(args, cfg: RunConfig) -> Path:
    # precedence: --out flag, then DNTK_OUT, then the config value
    out = args.out or os.environ.get("DNTK_OUT") or cfg.out_dir
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _p(out: Path, key: str) -> Path:
    return out / FILES[key]


# ------------------------------------------------------------------ stages

def cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    train, test = pipeline.split_mixture(cfg, pipeline.derive_seed(cfg.seed, "gen-data"))
    write_dataset(train, _p(out, "train"))
    write_dataset(test, _p(out, "test"))
    print(f"wrote {train.size} train / {test.size} test samples to {out}")
    return 0


def cmd_train_model(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    train = read_dataset(_p(out, "train"))
    params = init_params(cfg.layer_sizes, pipeline.derive_seed(cfg.seed, "init"), cfg.activation)
    model = train_sgd(
        params,
        train,
        lr=cfg.train_lr,
        epochs=cfg.train_epochs,
        batch=cfg.train_batch,
        seed=pipeline.derive_seed(cfg.seed, "train"),
    )
    write_model(model, _p(out, "model"))
    print(f"trained {model.param_count}-parameter model, saved to {_p(out, 'model')}")
    return 0


def cmd_extract_grads(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    model = read_model(_p(out, "model"))
    for split, key in (("train", "grads_train"), ("test", "grads_test")):
        data = read_dataset(_p(out, split))
        feats = extract_features(model, data.inputs, data.labels)
        write_gradients(feats, _p(out, key))
        del data, feats  # hold one split's raw rows at a time
    print(f"wrote raw gradient features to {out}")
    return 0


def cmd_project(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    raw = read_gradients(_p(out, "grads_train"))
    op = sample_orthonormal(
        raw.width,
        pipeline.sketch_width(cfg, raw.width),
        pipeline.derive_seed(cfg.seed, "sketch"),
    )
    write_sketch_meta(op, _p(out, "sketch_meta"))
    write_gradients(project_features(raw, op), _p(out, "sketched_train"))
    del raw  # hold one split's raw rows at a time
    raw = read_gradients(_p(out, "grads_test"))
    write_gradients(project_features(raw, op), _p(out, "sketched_test"))
    print(f"sketched {op.source_dim} -> {op.target_dim} dimensions")
    return 0


def cmd_kernel_stats(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    feats = read_gradients(_p(out, "sketched_train"), dim_kind=SKETCHED)
    stack = kernel.build_stack(feats, cfg.scale_kind)
    path = _p(out, "kernel_stats")
    with open(path, "w") as fh:
        fh.write("class,trace,trunc_rank,condition,min_eig,effective_dim\n")
        for ci in range(stack.class_count):
            summary = kernel.spectral_summary(stack.per_class[ci])
            eff = kernel.effective_dimension(summary.eig.values, cfg.lambda_reg) \
                if cfg.lambda_reg > 0 else float((summary.eig.values > 0).sum())
            fh.write(
                f"{ci},{summary.trace:.17g},{summary.trunc_rank},"
                f"{summary.condition:.17g},{summary.min_eig:.17g},{eff:.17g}\n"
            )
    print(f"wrote per-class spectra to {path}")
    return 0


def cmd_distill_grads(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    feats = read_gradients(_p(out, "sketched_train"), dim_kind=SKETCHED)
    dg, report = distill_mod.distill(
        feats,
        h=cfg.h,
        tau_v=cfg.tau_v,
        tau_g=cfg.tau_g,
        eps_qr=cfg.eps_qr,
        seed=pipeline.derive_seed(cfg.seed, "distill"),
        max_size=args.budget,
    )
    write_distilled(dg, report, _p(out, "distilled"))
    ratio = distill_mod.compression_ratio(feats.size, dg.size)
    print(
        f"distilled {feats.size} -> {dg.size} gradients "
        f"(compression {ratio:.1f}x, {len(report.gap_set)} gap directions)"
    )
    return 0


def cmd_select_baseline(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    feats = read_gradients(_p(out, "sketched_train"), dim_kind=SKETCHED)
    seed = pipeline.derive_seed(cfg.seed, args.method)
    if args.method == "random":
        sel = baselines.select_random(feats.size, args.budget, seed)
    elif args.method == "leverage":
        kbar = kernel.average_kernel(kernel.build_stack(feats, cfg.scale_kind))
        sel = baselines.select_leverage(kbar, args.budget, min(args.budget, feats.size), seed)
    elif args.method == "fps":
        sel = baselines.select_fps(baselines.flatten_rows(feats.per_class), args.budget, seed)
    else:
        sel = baselines.select_kmeans(
            baselines.flatten_rows(feats.per_class), args.budget, seed
        )
    write_selection(sel, out / f"selected_{args.method}.npz")
    print(f"selected {sel.indices.size} samples with {args.method}")
    return 0


def cmd_fit_krr(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    feats = read_gradients(_p(out, "sketched_train"), dim_kind=SKETCHED)
    if args.source == "distilled":
        dg, _ = read_distilled(_p(out, "distilled"))
        basis, targets = dg.phi_hat, dg.y_hat
    elif args.source == "full":
        basis = krr.features_as_basis(feats)
        targets = feats.model_logits
    else:
        idx = read_selection(out / f"selected_{args.source}.npz", feats.size)
        basis = krr.features_as_basis(feats)[idx]
        targets = feats.model_logits[idx]
    model = krr.fit(basis, targets, lambda_reg=cfg.lambda_reg, scale_kind=cfg.scale_kind)
    write_krr(model, _p(out, "krr"))
    print(f"fit ridge model on {model.size} gradients at lambda={cfg.lambda_reg:g}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    model = read_krr(_p(out, "krr"))
    test_feats = read_gradients(_p(out, "sketched_test"), dim_kind=SKETCHED)
    train_feats = read_gradients(_p(out, "sketched_train"), dim_kind=SKETCHED)
    pred = krr.predict(model, test_feats)
    labels = test_feats.labels.argmax(axis=1)
    c = train_feats.class_count
    coverage = np.empty(c)
    recon = np.empty(c)
    condition = np.empty(c)
    min_eig = np.empty(c)
    for ci in range(c):
        v = metrics.orthonormal_rows_basis(model.basis[:, :, ci])
        coverage[ci], recon[ci] = metrics.subspace_scores(train_feats.per_class[ci], v)
        condition[ci], min_eig[ci] = kernel.spectrum_conditioning(model.eig_values[ci])
    row = ReportRow(
        method=args.method,
        seed=cfg.seed,
        s=model.size,
        compression=distill_mod.compression_ratio(train_feats.size, model.size),
        fidelity=metrics.fidelity(pred, test_feats.model_logits),
        accuracy=metrics.accuracy(pred, labels),
        mse=metrics.mse(pred, test_feats.model_logits),
        coverage=float(coverage.mean()),
        recon_error=float(recon.mean()),
        condition=float(condition.mean()),
        min_eig=float(min_eig.min()),
    )
    path = _p(out, "report")
    write_report([row], path, append=path.exists())
    print(f"appended {args.method} row to {path} (fidelity {row.fidelity:.4f})")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    rows = pipeline.sweep_rows(cfg, jobs=args.jobs)
    write_report(rows, _p(out, "sweep"))
    print(f"wrote {len(rows)} rows to {_p(out, 'sweep')}")
    return 0


def cmd_verify_theory(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    checks = pipeline.theory_battery(cfg.seed)
    path = _p(out, "theory")
    with open(path, "w") as fh:
        fh.write("check,value,threshold,passed\n")
        for c in checks:
            fh.write(f"{c.name},{c.value:.17g},{c.threshold:.17g},{int(c.passed)}\n")
    width = max(len(c.name) for c in checks)
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        print(f"{c.name:<{width}}  {c.value: .3e}  (limit {c.threshold: .1e})  {status}")
    if all(c.passed for c in checks):
        print("all theory checks passed")
        return 0
    print("theory checks FAILED", file=sys.stderr)
    return 2


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dntk",
        description="Tangent-kernel gradient features: sketching, distillation, regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file (strict keys)")
        p.add_argument("--out", help="output directory (else $DNTK_OUT, else config)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.set_defaults(fn=fn)
        return p

    add("gen-data", cmd_gen_data, "draw the synthetic mixture task")
    add("train-model", cmd_train_model, "train the base network")
    add("extract-grads", cmd_extract_grads, "write raw per-logit gradient features")
    add("project", cmd_project, "sketch raw features to the target width")
    add("kernel-stats", cmd_kernel_stats, "spectral summary of each class kernel")
    p = add("distill-grads", cmd_distill_grads, "run local-global distillation")
    p.add_argument("--budget", type=int, help="cap on the distilled set size")
    p = add("select-baseline", cmd_select_baseline, "pick a baseline subset")
    p.add_argument("--method", required=True, choices=list(baselines.METHODS))
    p.add_argument("--budget", type=int, required=True)
    p = add("fit-krr", cmd_fit_krr, "fit ridge regressors on a gradient set")
    p.add_argument(
        "--source",
        default="distilled",
        help="distilled | full | one of " + "|".join(baselines.METHODS),
    )
    p = add("evaluate", cmd_evaluate, "score the fitted model on the test split")
    p.add_argument("--method", default="distill", help="method tag for the report row")
    p = add("sweep", cmd_sweep, "grid over H, tau_v, tau_g and all methods")
    p.add_argument("--jobs", type=int, default=1, help="parallel cells (default 1)")
    add("verify-theory", cmd_verify_theory, "run the descent/eigenspace check battery")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 2 reserved for numerical
        # failures and report bad invocations as validation errors instead
        return 0 if exc.code == 0 else 1
    try:
        return args.fn(args)
    except NumericalError as exc:
        print(f"error_code={exc.code}", file=sys.stderr)
        print(str(exc), file=sys.stderr)
        return 2
    except DntkError as exc:
        print(f"error_code={exc.code}", file=sys.stderr)
        print(str(exc), file=sys.stderr)
        return 1
    except OSError as exc:
        # missing or unreadable stage artifacts are a usage problem, not a bug
        print("error_code=IoError", file=sys.stderr)
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
