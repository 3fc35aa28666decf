"""Spans around the public functions of the dntk modules, added from outside.

`Tracer.install()` replaces every public function of every dntk module with
a timing wrapper. The wrapper is put in place under every name the function
is reachable by in any loaded dntk module, so a call through a
`from .x import f` alias is timed like a call through `x.f`. Spans are kept
in memory; `summary()` turns them into per-function self time (span duration
minus the time its direct child spans cover) and call counts.

Three counts are computed from argument shapes and file sizes rather than
timed, and repeat exactly for a given input:

- `tangent.sketch_flops`: 2*C*n*P*k for every (C, n, P) gradient block
  multiplied by a P x k sketch, on both the fused path
  (`pipeline.sketched_features`) and the staged one (`sketch.project_features`);
- `io.bytes_written` / `io.bytes_read`: sizes of the gradient files passed
  to `io.write_gradients` / `io.read_gradients`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

MODULES = (
    "baselines", "cli", "cluster", "distill", "io", "kernel", "krr",
    "metrics", "numerics", "pipeline", "sketch", "tangent", "theory",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, float]] = []  # name, start, end, child time
        self._stack: list[list[float]] = []  # per open span: [child time]
        self.counts = {"tangent.sketch_flops": 0, "io.bytes_written": 0, "io.bytes_read": 0}

    # ------------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every public function of the dntk modules, at every alias."""
        mods = {name: importlib.import_module(f"dntk.{name}") for name in MODULES}
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue  # an alias; handled with its home module
                wrapped[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for mod in mods.values():
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and id(fn) in wrapped:
                    setattr(mod, attr, wrapped[id(fn)])

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += end - start
                self.spans.append((name, start, end, frame[0]))
            if counter is not None:
                counter(self.counts, args, kwargs)
            return result

        return traced

    # ------------------------------------------------------------- results

    def summary(self) -> dict:
        """{"<module>.<function>": {"s": self seconds, "calls": n}} plus counts."""
        out: dict = {}
        for name, start, end, child in self.spans:
            entry = out.setdefault(name, {"s": 0.0, "calls": 0})
            entry["s"] += (end - start) - child
            entry["calls"] += 1
        return {"functions": out, "counts": dict(self.counts)}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_fused_sketch(counts, args, kwargs):
    params = _arg(args, kwargs, 0, "params")
    n = len(_arg(args, kwargs, 1, "inputs"))
    k = _arg(args, kwargs, 3, "op").target_dim
    counts["tangent.sketch_flops"] += 2 * params.class_count * n * params.param_count * k


def _count_staged_sketch(counts, args, kwargs):
    c, n, p = _arg(args, kwargs, 0, "feats").per_class.shape
    k = _arg(args, kwargs, 1, "op").target_dim
    counts["tangent.sketch_flops"] += 2 * c * n * p * k


def _count_written(counts, args, kwargs):
    counts["io.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_read(counts, args, kwargs):
    counts["io.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


_COUNTERS = {
    "pipeline.sketched_features": _count_fused_sketch,
    "sketch.project_features": _count_staged_sketch,
    "io.write_gradients": _count_written,
    "io.read_gradients": _count_read,
}


def merge(summaries) -> dict:
    """Sum summaries from several traced processes (one per CLI stage)."""
    functions: dict = {}
    counts: dict = {}
    for summary in summaries:
        for name, entry in summary["functions"].items():
            total = functions.setdefault(name, {"s": 0.0, "calls": 0})
            total["s"] += entry["s"]
            total["calls"] += entry["calls"]
        for name, value in summary["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {"functions": functions, "counts": counts}
