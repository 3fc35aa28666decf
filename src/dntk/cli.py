"""Command line front end.

Subcommands mirror the pipeline stages and exchange files through the io
module, so a run can stop and resume at any stage. io writes every file a
stage leaves, its CSV tables included, so this module opens none. main runs
each stage inside io.replacing: a stage reads its inputs through _p and
writes each output to new(key), and returns its exit code and its text.
Its outputs appear in the output directory together once it returns, or
not at all when it fails, and main prints the text only then. Every
gradient file is opened through io.read_gradients, and _read_grads refuses
one whose header records the other kind of rows. `project` reads both raw
splits (a raw file's header, layer widths, class ids and logits; its
factors stay in the file) and checks their kinds, widths and class ids and
the memory of the sketch and its larger output before it draws the sketch.
`evaluate` holds one sketched split at a time, and writes the rows of the
report.csv it found with its own row after them. main parses the
arguments, loads the config and resolves the output directory once, then
hands all three to the subcommand. Exit codes: 0 on success, 1 on
validation problems (bad flags, config, files, memory, a full disk), 2 when
a computation is numerically degenerate. Every failure lands on stderr as a
single `error_code=<Name>` line followed by the message.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import baselines, distill as distill_mod, kernel, krr, pipeline
from .errors import DimMismatch, DntkError, InputError, NumericalError
from .io import (
    KERNEL_STATS_COLUMNS,
    THEORY_COLUMNS,
    RunConfig,
    read_config,
    read_dataset,
    read_distilled,
    read_gradients,
    read_krr,
    read_model,
    read_report,
    read_selection,
    replacing,
    write_dataset,
    write_distilled,
    write_gradients,
    write_krr,
    write_model,
    write_report,
    write_selection,
    write_sketch_meta,
    write_table,
)
from .numerics import rank_tolerance, sym_eigvals
from .sketch import project_features, require_memory, sketch_bytes
from .tangent import GradientFeatures, extract_features

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
    **{f"selected_{m}": f"selected_{m}.npz" for m in baselines.METHODS},
}
FIT_SOURCES = ("distilled", "full", *baselines.METHODS)


def _load_config(args) -> RunConfig:
    cfg = read_config(args.config) if args.config else RunConfig().validate()
    if args.seed is not None:
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


def _read_grads(out: Path, key: str) -> GradientFeatures:
    """The features of a grads_* or sketched_* file, refused with DimMismatch
    unless its header records raw or sketched rows, as its key says."""
    feats = read_gradients(_p(out, key))
    if feats.raw != key.startswith("grads"):
        held, wanted, stage = (("raw", "sketched", "project") if feats.raw
                               else ("sketched", "raw", "extract-grads"))
        raise DimMismatch(f"{_p(out, key)} holds {held} rows, expected {wanted} ones; "
                          f"run `dntk {stage}` to write it")
    return feats


# ------------------------------------------------------------------ stages

def cmd_gen_data(cfg: RunConfig, out: Path, new, args) -> tuple[int, str]:
    train, test = pipeline.split_mixture(cfg, pipeline.derive_seed(cfg.seed, "gen-data"))
    write_dataset(train, new("train"))
    write_dataset(test, new("test"))
    return 0, f"wrote {train.size} train / {test.size} test samples to {out}"


def cmd_train_model(cfg: RunConfig, out: Path, new, args) -> tuple[int, str]:
    model = pipeline.train_model(cfg, read_dataset(_p(out, "train")), cfg.seed)
    write_model(model, new("model"))
    return 0, f"trained {model.param_count}-parameter model, saved to {_p(out, 'model')}"


def cmd_extract_grads(cfg: RunConfig, out: Path, new, args) -> tuple[int, str]:
    model = read_model(_p(out, "model"))
    splits = {split: read_dataset(_p(out, split)) for split in ("train", "test")}
    for split, data in splits.items():  # the backward pass runs one row batch at a time
        write_gradients(extract_features(model, data.inputs, data.labels), new(f"grads_{split}"))
    return 0, f"wrote raw gradient features to {out}"


def cmd_project(cfg: RunConfig, out: Path, new, args) -> tuple[int, str]:
    train, test = _read_grads(out, "grads_train"), _read_grads(out, "grads_test")
    (c, m, d), sizes = train.per_class.shape, train.per_class.layer_sizes
    if test.per_class.layer_sizes != sizes:
        raise DimMismatch(f"{_p(out, 'grads_test')} holds a network of layer widths "
                          f"{test.per_class.layer_sizes}, {_p(out, 'grads_train')} one of {sizes}")
    k = pipeline.sketch_width(cfg, d)
    # Q stays while the splits are sketched one at a time, so it needs room
    # beside the larger split's sketch
    rows = max(m, test.size)
    require_memory(8 * d * k + sketch_bytes(sizes, rows, k),
                   f"a {d} x {k} sketch and its {c} x {rows} x {k} output")
    op = pipeline.sketch_operator(cfg, d, cfg.seed)
    write_sketch_meta(op.record, new("sketch_meta"))
    for split, raw in (("train", train), ("test", test)):  # factors read per row batch
        write_gradients(project_features(raw, op), new(f"sketched_{split}"))
    return 0, f"sketched {op.source_dim} -> {op.target_dim} dimensions"


def cmd_kernel_stats(cfg: RunConfig, out: Path, new, args) -> tuple[int, str]:
    # the training rows go once the stack is built
    stack = kernel.build_stack(_read_grads(out, "sketched_train"), cfg.scale_kind)
    rows = []  # in KERNEL_STATS_COLUMNS order
    for ci, gram in enumerate(stack):
        values = sym_eigvals(gram)
        eff = kernel.effective_dimension(values, cfg.lambda_reg) if cfg.lambda_reg > 0 \
            else float((values > rank_tolerance(values)).sum())  # the numerical rank
        rows.append((ci, float(values.sum()), kernel.kept_rank(values, 1.0 - cfg.tau_v),
                     *kernel.spectrum_conditioning(values), eff))
    write_table(rows, new("kernel_stats"), KERNEL_STATS_COLUMNS)
    return 0, f"wrote per-class spectra to {_p(out, 'kernel_stats')}"


def cmd_distill_grads(cfg: RunConfig, out: Path, new, args) -> tuple[int, str]:
    feats = _read_grads(out, "sketched_train")
    dg, report = pipeline.distill_features(
        feats, cfg, pipeline.derive_seed(cfg.seed, "distill"), args.budget
    )
    write_distilled(dg, report, new("distilled"))
    ratio = distill_mod.compression_ratio(feats.size, dg.size)
    return 0, (f"distilled {feats.size} -> {dg.size} gradients "
               f"(compression {ratio:.1f}x, {len(report.gap_set)} gap directions)")


def cmd_select_baseline(cfg: RunConfig, out: Path, new, args) -> tuple[int, str]:
    feats = _read_grads(out, "sketched_train")
    seed = pipeline.derive_seed(cfg.seed, args.method)
    sel = pipeline.select_baseline(feats, args.method, args.budget, seed)
    write_selection(sel, new(f"selected_{args.method}"))
    return 0, f"selected {sel.indices.size} samples with {args.method}"


def cmd_fit_krr(cfg: RunConfig, out: Path, new, args) -> tuple[int, str]:
    feats, picked = _read_grads(out, "sketched_train"), None
    if args.source == "distilled":
        picked, _ = read_distilled(_p(out, "distilled"))
        (c, s, d), m = picked.phi_hat.shape, picked.lifted_basis.shape[0]
        if (c, d, m) != (feats.class_count, feats.width, feats.size):
            raise DimMismatch(
                f"{_p(out, 'distilled')} holds {c} classes of width {d} drawn from {m} rows, "
                f"{_p(out, 'sketched_train')} {feats.class_count} classes of width "
                f"{feats.width} in {feats.size} rows; run `dntk distill-grads` to write it")
    elif args.source != "full":
        picked = read_selection(_p(out, f"selected_{args.source}"), feats.size, args.source)
    basis, targets = pipeline.gradient_set(feats, picked)
    model = krr.fit(basis, targets, lambda_reg=cfg.lambda_reg, scale_kind=cfg.scale_kind)
    write_krr(model, new("krr"))
    return 0, f"fit ridge model on {model.size} gradients at lambda={cfg.lambda_reg:g}"


def cmd_evaluate(cfg: RunConfig, out: Path, new, args) -> tuple[int, str]:
    model = read_krr(_p(out, "krr"))
    # one sketched split at a time: the test rows go once they are predicted
    test = _read_grads(out, "sketched_test")
    pred, labels, logits = krr.predict(model, test.per_class), test.labels, test.model_logits
    del test
    train = _read_grads(out, "sketched_train")
    row = pipeline.score_krr(model, train, pred, labels, logits, args.method, cfg.seed)
    path = _p(out, "report")
    write_report((read_report(path) if path.exists() else []) + [row], new("report"))
    return 0, f"appended {args.method} row to {path} (fidelity {row.fidelity:.4f})"


def cmd_sweep(cfg: RunConfig, out: Path, new, args) -> tuple[int, str]:
    if args.seed is not None:  # --seed N runs root seed N alone
        cfg.sweep_seeds = [args.seed]
    rows = pipeline.sweep_rows(cfg, jobs=args.jobs)
    write_report(rows, new("sweep"))
    return 0, f"wrote {len(rows)} rows to {_p(out, 'sweep')}"


def cmd_verify_theory(cfg: RunConfig, out: Path, new, args) -> tuple[int, str]:
    checks = pipeline.theory_battery(cfg.seed)
    write_table([(c.name, c.value, c.threshold, int(c.passed)) for c in checks],
                new("theory"), THEORY_COLUMNS)
    width = max(len(c.name) for c in checks)
    lines = [f"{c.name:<{width}}  {c.value: .3e}  (limit {c.threshold: .1e})  "
             f"{'pass' if c.passed else 'FAIL'}" for c in checks]
    if all(c.passed for c in checks):
        return 0, "\n".join(lines + ["all theory checks passed"])
    return 2, "\n".join(lines + ["theory checks FAILED"])


# ------------------------------------------------------------------ parser

class _Parser(argparse.ArgumentParser):
    """Usage errors leave through InputError, like every other bad input."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--source", default="distilled", choices=FIT_SOURCES,
                   help="gradient set to fit on (default distilled)")
    p = add("evaluate", cmd_evaluate, "score the fitted model on the test split")
    p.add_argument("--method", default="distill", help="method tag for the report row")
    p = add("sweep", cmd_sweep, "grid over H, tau_v, tau_g and all methods")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="grid cells computed at once in threads (default 1); assumes "
        "OPENBLAS_NUM_THREADS=1, else BLAS threads oversubscribe the cores",
    )
    add("verify-theory", cmd_verify_theory, "run the descent/eigenspace check battery")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _load_config(args)
        out = _out_dir(args, cfg)
        with replacing(out) as new:  # the stage's outputs appear once it returns
            code, done = args.fn(cfg, out, lambda key: new(FILES[key]), args)
        print(done)  # only once the outputs are in place
        return code
    except SystemExit as exc:  # --help printed its text
        return exc.code
    except (DntkError, OSError, MemoryError) as exc:
        # missing or unreadable stage artifacts are a usage problem, not a bug,
        # and an array numpy cannot allocate is refused as require_memory refuses one
        code = (exc.code if isinstance(exc, DntkError)
                else "InsufficientMemory" if isinstance(exc, MemoryError) else "IoError")
        print(f"error_code={code}", file=sys.stderr)
        print(str(exc), file=sys.stderr)
        return 2 if isinstance(exc, NumericalError) else 1


if __name__ == "__main__":
    sys.exit(main())
