"""The benchmark's workloads: their configs, operations and output checks.

accept09       The acceptance-test-9 config for one root seed: prepare_task,
               then `full` and {distill, random, fps, leverage, kmeans} at
               budgets {5, 10, 25, 50}. The only config where the methods
               rank differently; its wide P makes the Jacobian sketch heavy
               and k-means dominates method time.
sweep-default  pipeline.sweep_rows on the default config over a 3x2x2 grid
               with methods distill/random/leverage. Recomputes per-task
               invariants in every cell, scores large s in krr/metrics and
               never reaches the k-means baseline.
cli-chain      The staged CLI on the default config, one subprocess per
               stage. Sketches through the materialize-then-project path and
               is the only workload that reads and writes gradient files.
"""

from __future__ import annotations

import math

from dntk.io import REPORT_COLUMNS, RunConfig

ACCEPT09_BUDGETS = (5, 10, 25, 50)
ACCEPT09_METHODS = ("distill", "random", "fps", "leverage", "kmeans")

# (label, argv after `dntk`); labels name the per-stage metrics
CLI_STAGES = (
    ("gen-data", ["gen-data"]),
    ("train-model", ["train-model"]),
    ("extract-grads", ["extract-grads"]),
    ("project", ["project"]),
    ("kernel-stats", ["kernel-stats"]),
    ("distill-grads", ["distill-grads"]),
    ("fit-krr", ["fit-krr"]),
    ("evaluate", ["evaluate"]),
    ("select-baseline-random", ["select-baseline", "--method", "random", "--budget", "25"]),
    ("fit-krr-random", ["fit-krr", "--source", "random"]),
    ("evaluate-random", ["evaluate", "--method", "random"]),
)
# gen-data through project leave the gradient features ready
CLI_SETUP_STAGES = 4
CLI_BASELINE_BUDGET = 25

# Call counts of one traced pass. A mismatch means a call site escaped the
# wrappers (or the program's call structure changed) and fails the run.
EXPECTED_CALLS = {
    "accept09": {
        "pipeline.prepare_task": 1,
        "pipeline.sketched_features": 2,
        "tangent.train_sgd": 1,
        "sketch.sample_orthonormal": 1,
        "pipeline.run_method": 21,
        "pipeline.evaluate_gradient_set": 21,
        "krr.fit": 21,
        "krr.predict": 21,
        "distill.distill": 4,
        "cluster.spectral_cluster": 4,
        "baselines.select_kmeans": 4,
        "baselines.select_fps": 4,
        "baselines.select_leverage": 4,
        "baselines.select_random": 4,
        "cluster.kmeans_fit": 8,
        "kernel.build_stack": 8,
    },
    "sweep-default": {
        "pipeline.prepare_task": 1,
        "pipeline.sketched_features": 2,
        "tangent.train_sgd": 1,
        "sketch.sample_orthonormal": 1,
        "pipeline.run_method": 37,
        "pipeline.evaluate_gradient_set": 37,
        "krr.fit": 37,
        "krr.predict": 37,
        "distill.distill": 12,
        "cluster.spectral_cluster": 12,
        "baselines.select_leverage": 12,
        "baselines.select_random": 12,
        "baselines.select_kmeans": 0,
        "cluster.kmeans_fit": 12,
        "kernel.build_stack": 24,
    },
    "cli-chain": {
        "pipeline.prepare_task": 0,
        "pipeline.sketched_features": 0,
        "tangent.train_sgd": 1,
        "tangent.extract_features": 2,
        "sketch.sample_orthonormal": 1,
        "sketch.project_features": 2,
        "io.write_gradients": 4,
        "io.read_gradients": 11,
        "krr.fit": 2,
        "krr.predict": 2,
        "distill.distill": 1,
        "cluster.spectral_cluster": 1,
        "baselines.select_random": 1,
        "baselines.select_kmeans": 0,
        "kernel.build_stack": 2,
    },
}

FLOAT_FIELDS = tuple(c for c in REPORT_COLUMNS if c not in ("method", "seed", "s"))


def accept09_config() -> RunConfig:
    """The config of acceptance test 9."""
    return RunConfig(
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
    ).validate()


def sweep_config(seed: int) -> RunConfig:
    return RunConfig(
        sweep_h=[5, 10, 20],
        sweep_tau_v=[0.9, 0.99],
        sweep_tau_g=[0.5, 0.9],
        methods=["distill", "random", "leverage"],
        sweep_seeds=[seed],
    ).validate()


def accept09_operations() -> list[tuple[str, int | None]]:
    """(method, budget) in the order test 9 runs them for one root."""
    ops: list[tuple[str, int | None]] = [("full", None)]
    for budget in ACCEPT09_BUDGETS:
        ops += [(method, budget) for method in ACCEPT09_METHODS]
    return ops


def sweep_labels(cfg: RunConfig) -> list[str]:
    """Row labels sweep_rows emits for one seed, in grid order."""
    labels = ["full"]
    for h in cfg.sweep_h:
        for tv in cfg.sweep_tau_v:
            for tg in cfg.sweep_tau_g:
                tag = f"[H={h},tv={tv:g},tg={tg:g}]"
                labels.append(f"distill{tag}")
                labels += [
                    f"{m}{tag}" for m in cfg.methods if m not in ("distill", "full")
                ]
    return labels


def row_problem(row) -> str | None:
    """Why a report row is unusable, or None when every value is finite."""
    bad = [name for name in FLOAT_FIELDS if not math.isfinite(getattr(row, name))]
    return f"{row.method}: non-finite {','.join(bad)}" if bad else None


def check_accept09(rows_by_op) -> list[str | None]:
    """One entry per operation: None when its row passes, else the problem.

    rows_by_op pairs each (method, budget) with its row, or with the error
    text when run_method raised.
    """
    problems: list[str | None] = []
    for (method, budget), row in rows_by_op:
        if isinstance(row, str):
            problems.append(f"{method}@{budget}: {row}")
        elif budget is not None and row.s != budget:
            problems.append(f"{method}@{budget}: s={row.s}")
        else:
            problems.append(row_problem(row))
    return problems


def check_sweep(cfg: RunConfig, rows) -> list[str | None]:
    """One entry per expected row: grid order, matched budgets, finite values."""
    labels = sweep_labels(cfg)
    problems: list[str | None] = []
    cell_s = None
    for i, label in enumerate(labels):
        row = rows[i] if i < len(rows) else None
        if row is None:
            problems.append(f"row {i} ({label}) missing")
        elif row.method != label:
            problems.append(f"row {i} is {row.method}, expected {label}")
        elif label.startswith("distill"):
            cell_s = row.s
            problems.append(row_problem(row))
        elif label != "full" and row.s != cell_s:
            problems.append(f"{label}: s={row.s}, cell distilled to {cell_s}")
        else:
            problems.append(row_problem(row))
    if len(rows) > len(labels):
        problems[-1] = problems[-1] or f"{len(rows) - len(labels)} extra rows"
    return problems


def check_cli_report(rows) -> list[str]:
    """report.csv after the chain: a distill row then a random row at s=25."""
    problems = []
    if [r.method for r in rows] != ["distill", "random"]:
        problems.append(f"report rows {[r.method for r in rows]}, expected distill, random")
    elif rows[1].s != CLI_BASELINE_BUDGET:
        problems.append(f"random row has s={rows[1].s}")
    problems += [p for p in map(row_problem, rows) if p]
    return problems
