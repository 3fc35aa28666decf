"""dntk benchmark: one run of one workload, ending in a JSON result line.

    python3 perfbench/run.py --workload {accept09,sweep-default,cli-chain} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout: it imports `src/dntk` and reads
the metric names and units from `BENCHMARK.json`. Every pass of a workload
runs in fresh processes, so each has its own peak RSS, with OpenBLAS pinned
to one thread (BLAS_THREADS). Scratch files go to `.perfbench_work/` and are
removed at the end of the run, except for a small registry of report
digests.

--trace 0 (end-to-end metrics):
    In-process workloads run one full pass and one setup-only pass;
    cli-chain runs the whole chain twice. Then more full passes follow
    while the next one is expected to end within S seconds of the start.
    Each metric is the median over the full passes, setup_s the median
    over every set-up sample.
--trace 1 (per-layer metrics):
    One untraced and one traced pass. The traced pass wraps every public
    dntk function (see tracer.py); its call counts must equal the ones in
    workloads.EXPECTED_CALLS. trace.overhead_s is traced minus untraced
    wall time. The cli.<stage> metrics come from the untraced pass, which
    measures them from outside the stage processes.

Each run checks its rows (finite values; budgets met; grid order; two rows
in report.csv) and hashes the emitted rows. Every pass of a run, and every
run of the same workload, seed, environment and source tree in this
checkout, must produce the same digest; a mismatch counts as a failed
operation. The line before the result holds the environment, shapes,
digest, every sample and any problem found.

Exit code 1 with no result line means the benchmark itself could not run,
for instance when `src/dntk` is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("accept09", "sweep-default", "cli-chain")
SETUP_SAMPLES = 2
MIN_PASSES = {"cli-chain": 2}  # a chain pass is short enough to repeat
RUN_LIMIT_S = 170.0  # every child process of a run is killed by then
# Two BLAS threads on two shared cores wait on each other whenever the host
# slows one core; one thread per process made run-to-run spread about three
# times smaller on a 2-vCPU VM. Pinned for every run, so commits compare.
BLAS_THREADS = "1"


class BenchError(Exception):
    """The benchmark could not produce a measurement."""


@dataclass
class Child:
    t0: float
    t1: float
    code: int
    maxrss_kb: int


@dataclass
class Pass:
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    distill_fidelity: float | None
    digest: str
    attempted: int
    problems: list = field(default_factory=list)
    shapes: dict = field(default_factory=dict)
    trace: dict | None = None
    stages: dict = field(default_factory=dict)  # label -> Child (cli-chain)


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.kill_at = self.start + RUN_LIMIT_S
        self.work = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.log = self.work / "children.log"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.count = 0

    # ----------------------------------------------------------- processes

    def spawn(self, argv) -> Child:
        """Run argv to completion; its peak RSS comes from wait4."""
        limit = self.kill_at - time.perf_counter()
        if limit <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        with open(self.log, "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT
            )
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            reaped = False
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
            finally:
                timer.cancel()
                if not reaped:
                    proc.kill()
                    proc.wait()
            t1 = time.perf_counter()
        return Child(t0, t1, os.waitstatus_to_exitcode(status), usage.ru_maxrss)

    def log_tail(self, lines: int = 15) -> str:
        text = self.log.read_text(errors="replace").splitlines()
        return "\n".join(text[-lines:])

    # ---------------------------------------------------- in-process passes

    def worker(self, setup_only: bool = False, trace: bool = False) -> dict:
        self.count += 1
        result = self.work / f"result-{self.count}.json"
        report = self.work / f"rows-{self.count}.csv"
        argv = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--result", str(result), "--report", str(report),
        ]
        argv += ["--setup-only"] * setup_only + ["--trace"] * trace
        child = self.spawn(argv)
        if child.code != 0:
            raise BenchError(f"worker exited with {child.code}:\n{self.log_tail()}")
        rec = json.loads(result.read_text())
        rec["child"] = child
        rec["setup_s"] = rec["t_ready"] - child.t0
        return rec

    def inprocess_pass(self, trace: bool = False) -> Pass:
        rec = self.worker(trace=trace)
        child = rec["child"]
        return Pass(
            wall_s=rec["t_end"] - child.t0,
            setup_s=rec["setup_s"],
            peak_rss_mb=child.maxrss_kb / 1024.0,
            distill_fidelity=rec["distill_fidelity"],
            digest=rec["report_sha256"],
            attempted=len(rec["problems"]),
            problems=[p for p in rec["problems"] if p],
            shapes=rec["shapes"],
            trace=rec["trace"],
        )

    # ------------------------------------------------------ cli-chain pass

    def cli_pass(self, trace: bool = False) -> Pass:
        from dntk.io import RunConfig, read_report

        import tracer as tracing
        import workloads

        out = self.work / "chain"
        shutil.rmtree(out, ignore_errors=True)
        problems, stages, summaries = [], {}, []
        for i, (label, args) in enumerate(workloads.CLI_STAGES):
            tail = args + ["--out", str(out), "--seed", str(self.seed)]
            if trace:
                trace_file = self.work / f"trace-{i}.json"
                trace_file.unlink(missing_ok=True)
                argv = [sys.executable, str(HERE / "stage.py"), str(trace_file)] + tail
            else:
                argv = [sys.executable, "-m", "dntk.cli"] + tail
            child = self.spawn(argv)
            stages[label] = child
            if child.code != 0:
                problems.append(f"{label} exited with {child.code}: {self.log_tail(3)}")
            elif trace:
                summaries.append(json.loads(trace_file.read_text()))
        report = out / "report.csv"
        rows = read_report(report) if report.exists() else []
        report_problems = workloads.check_cli_report(rows)
        if report_problems and not problems:
            problems.append("; ".join(report_problems))
        digest = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else ""
        first = stages[workloads.CLI_STAGES[0][0]]
        ready = stages[workloads.CLI_STAGES[workloads.CLI_SETUP_STAGES - 1][0]]
        last = stages[workloads.CLI_STAGES[-1][0]]
        cfg = RunConfig()
        shapes = {"n_train": cfg.n_train, "n_test": cfg.n_test, "C": cfg.class_count}
        if (out / "sketch.json").exists():
            meta = json.loads((out / "sketch.json").read_text())
            shapes.update(P=meta["source_dim"], k=meta["target_dim"])
        shapes["s"] = sorted({r.s for r in rows})
        return Pass(
            wall_s=last.t1 - first.t0,
            setup_s=ready.t1 - first.t0,
            peak_rss_mb=max(c.maxrss_kb for c in stages.values()) / 1024.0,
            distill_fidelity=rows[0].fidelity if rows else None,
            digest=digest,
            attempted=len(workloads.CLI_STAGES),
            problems=problems,
            shapes=shapes,
            trace=tracing.merge(summaries) if trace else None,
            stages=stages,
        )

    def full_pass(self, trace: bool = False) -> Pass:
        if self.workload == "cli-chain":
            return self.cli_pass(trace)
        return self.inprocess_pass(trace)

    # ----------------------------------------------------------------- runs

    def timed(self) -> tuple[list[Pass], list[float]]:
        """Full passes and set-up samples for the end-to-end metrics."""
        passes = [self.full_pass() for _ in range(MIN_PASSES.get(self.workload, 1))]
        setups = [p.setup_s for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(self.worker(setup_only=True)["setup_s"])
        while time.perf_counter() + passes[-1].wall_s <= self.deadline:
            passes.append(self.full_pass())
            setups.append(passes[-1].setup_s)
        return passes, setups

    def traced(self) -> tuple[list[Pass], dict]:
        """An untraced and a traced pass, and the per-layer values."""
        import workloads

        plain = self.full_pass()
        traced = self.full_pass(trace=True)
        functions = traced.trace["functions"]
        values: dict[str, float] = dict(traced.trace["counts"])
        for name, entry in functions.items():
            values[f"{name}.s"] = entry["s"]
            values[f"{name}.calls"] = entry["calls"]
        for label, child in plain.stages.items():
            values[f"cli.{label}.s"] = child.t1 - child.t0
            values[f"cli.{label}.peak_rss_mb"] = child.maxrss_kb / 1024.0
        values["trace.wall_s"] = traced.wall_s
        values["trace.untraced_wall_s"] = plain.wall_s
        values["trace.overhead_s"] = traced.wall_s - plain.wall_s
        for name, want in workloads.EXPECTED_CALLS[self.workload].items():
            got = functions.get(name, {}).get("calls", 0)
            if got != want:
                traced.problems.append(f"coverage: {name} called {got} times, expected {want}")
        return [plain, traced], values


# ---------------------------------------------------------------- records

def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": openblas_threads(numpy),
        "blas_thread_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def openblas_threads(numpy) -> int | None:
    """Thread count of the OpenBLAS build numpy loaded, when it can be asked."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "lib*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dntk").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_digests(workload: str, seed: int, env: dict, digests: list[str]) -> list[str]:
    """Digests must agree within the run and with earlier runs of the same key."""
    problems = [
        f"pass {i} report digest {d[:12]} differs from pass 0 {digests[0][:12]}"
        for i, d in enumerate(digests) if d != digests[0]
    ]
    key = hashlib.sha256(
        json.dumps([workload, seed, env, source_digest()], sort_keys=True).encode()
    ).hexdigest()
    registry = WORK / "digests.json"
    known = json.loads(registry.read_text()) if registry.exists() else {}
    if key in known and known[key] != digests[0]:
        problems.append(
            f"report digest {digests[0][:12]} differs from an earlier run's {known[key][:12]}"
        )
    elif key not in known:
        known[key] = digests[0]
        tmp = registry.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(registry)
    return problems


def metric_block(specs, values: dict) -> dict:
    out = {}
    for spec in specs:
        if spec["name"] not in values:
            raise BenchError(f"no value for metric {spec['name']}")
        out[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    return out


def per_layer_value(name: str, values: dict):
    """A per-layer metric's value; 0 for a function the workload never calls."""
    if name in values:
        return values[name]
    return 0 if name.endswith(".calls") else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description="dntk benchmark, one run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS  # before numpy loads
    # a terminated run unwinds, so spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "dntk" / "__init__.py").exists():
        print(f"error: no dntk sources under {SRC}", file=sys.stderr)
        return 1
    sys.path[:0] = [str(SRC)]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment()

    runner = Runner(args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            passes, layer_values = runner.traced()
        else:
            passes, setups = runner.timed()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        keep = runner.work / "children.log"
        if keep.exists():
            shutil.copy(keep, WORK / "last-children.log")
        shutil.rmtree(runner.work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    problems = [q for p in passes for q in p.problems]
    failed = min(attempted, len(problems))
    digest_problems = check_digests(args.workload, args.seed, env, [p.digest for p in passes])
    failed = min(attempted, failed + len(digest_problems))
    problems += digest_problems

    if args.trace:
        values = {
            spec["name"]: per_layer_value(spec["name"], layer_values)
            for spec in bench["per_layer"]
        }
        metrics = metric_block(bench["per_layer"], values)
    else:
        fidelities = [p.distill_fidelity for p in passes]
        values = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
            "distill_fidelity": fidelities[0] if fidelities[0] is not None else float("nan"),
        }
        metrics = metric_block(bench["end_to_end"], values)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "shapes": passes[0].shapes,
        "report_sha256": passes[0].digest,
        "op_fail_ratio": failed / attempted,
        "passes": [
            {"wall_s": p.wall_s, "setup_s": p.setup_s, "peak_rss_mb": p.peak_rss_mb}
            for p in passes
        ],
        "setup_samples_s": None if args.trace else setups,
        "trace_summary": passes[1].trace if args.trace else None,
        "problems": problems,
    }
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
