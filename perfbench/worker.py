"""One pass of an in-process workload (accept09 or sweep-default), in a fresh process.

    python3 perfbench/worker.py --workload accept09 --seed 0 --result r.json \
        --report rows.csv [--setup-only] [--trace]

Writes a JSON record to --result with perf_counter timestamps (the clock is
CLOCK_MONOTONIC, so the parent compares them with its own spawn time):
`t_ready` when prepare_task has returned and `t_end` after the report rows
are written, plus per-operation problems, shapes and, with --trace, the
tracer summary. Needs `src` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time

import tracer as tracing
import workloads
from dntk import pipeline
from dntk.io import write_report


def run(args) -> dict:
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    ready: dict = {}
    prepare = pipeline.prepare_task

    def prepare_and_stamp(cfg, root_seed):
        task = prepare(cfg, root_seed)
        ready.setdefault("t", time.perf_counter())
        ready.setdefault("task", task)
        return task

    # sweep_rows looks prepare_task up in its module, so this sees its call too
    pipeline.prepare_task = prepare_and_stamp

    seed = args.seed
    if args.workload == "accept09":
        cfg = workloads.accept09_config()
        task = pipeline.prepare_task(cfg, seed)
        if args.setup_only:
            return {"t_ready": ready["t"]}
        rows_by_op = []
        for method, budget in workloads.accept09_operations():
            op_seed = (
                pipeline.derive_seed(seed, "full")
                if budget is None
                else pipeline.derive_seed(seed, method, budget)
            )
            try:
                row = pipeline.run_method(task, method, op_seed, budget=budget)
            except Exception as exc:  # an operation failure is counted, not fatal
                row = f"{type(exc).__name__}: {exc}"
            rows_by_op.append(((method, budget), row))
        problems = workloads.check_accept09(rows_by_op)
        rows = [row for _, row in rows_by_op if not isinstance(row, str)]
    elif args.workload == "sweep-default":
        cfg = workloads.sweep_config(seed)
        if args.setup_only:
            pipeline.prepare_task(cfg, seed)
            return {"t_ready": ready["t"]}
        error = None
        try:
            rows = pipeline.sweep_rows(cfg)
        except Exception as exc:  # every row of the sweep is lost
            rows = []
            error = f"sweep_rows: {type(exc).__name__}: {exc}"
        problems = workloads.check_sweep(cfg, rows)
        if error:
            problems = [error] * len(problems)
        task = ready["task"]
    else:
        raise SystemExit(f"unknown in-process workload {args.workload!r}")

    write_report(rows, args.report)
    t_end = time.perf_counter()
    with open(args.report, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    distill_fid = [r.fidelity for r in rows if r.method.startswith("distill")]
    feats = task.train_feats
    return {
        "t_ready": ready["t"],
        "t_end": t_end,
        "problems": problems,
        "report_sha256": digest,
        "distill_fidelity": sum(distill_fid) / len(distill_fid) if distill_fid else None,
        "shapes": {
            "P": task.model.param_count,
            "k": task.sketch_op.target_dim,
            "n_train": feats.size,
            "n_test": task.test_feats.size,
            "C": feats.class_count,
            "s": sorted({r.s for r in rows}),
        },
        "trace": tracer.summary() if args.trace else None,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--report")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    record = run(args)
    with open(args.result, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
