"""Serialization: gradient feature files, CSV reports, JSON run configs.

Gradient features travel in a little fixed binary format (magic DNTK1,
version 1, little-endian float64 payload) so staged CLI runs can resume
from any point. Reports are CSV with a fixed column set and floats printed
at 17 significant digits, which makes repeated runs byte-comparable.
Everything else (datasets, models, distilled sets, KRR models, baseline
selections) rides in npz archives, which numpy writes deterministically and
one loader reads back without unpickling anything.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import struct
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .baselines import METHODS as BASELINE_METHODS, SelectionResult
from .distill import CoverageReport, DistilledGradients
from .errors import (
    DimMismatch,
    InputError,
    IndexOutOfRange,
    IoError,
    ParseError,
    TruncatedFile,
    UnknownField,
    VersionMismatch,
)
from .krr import KrrModel
from .sketch import SketchOperator, sample_orthonormal
from .tangent import ACTIVATIONS, GradientFeatures, LabeledDataset, MlpParams, RAW_PARAMS

MAGIC = b"DNTK1\0"
VERSION = 1
_DTYPE_F64 = 0
_LABELS_SOFT = 0
# magic + version + m + D + C + dtype byte + labels byte
_HEADER = struct.Struct("<6sIIIIBB")

_METHODS = ("distill", "full") + BASELINE_METHODS

REPORT_COLUMNS = (
    "method",
    "seed",
    "s",
    "compression",
    "fidelity",
    "accuracy",
    "mse",
    "coverage",
    "recon_error",
    "condition",
    "min_eig",
)


# ------------------------------------------------------- gradient features

def write_gradients(feats: GradientFeatures, path) -> None:
    """Serialize features; byte-identical output for identical inputs."""
    m, d, c = feats.size, feats.width, feats.class_count
    try:
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, VERSION, m, d, c, _DTYPE_F64, _LABELS_SOFT))
            for ci in range(c):
                fh.write(np.ascontiguousarray(feats.per_class[ci], dtype="<f8").data)
            fh.write(np.ascontiguousarray(feats.labels, dtype="<f8").data)
            fh.write(np.ascontiguousarray(feats.model_logits, dtype="<f8").data)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_gradients(path, dim_kind: str = RAW_PARAMS) -> GradientFeatures:
    """Parse a gradient feature file written by write_gradients.

    The format does not record whether rows are raw or sketched, so the
    caller states it; staged CLI runs know which file is which. The header
    and file size are checked first, then the payload is read straight into
    the returned arrays, so reading holds one copy of it.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size < _HEADER.size:
                raise TruncatedFile(f"{path}: {size} bytes is shorter than the header")
            magic, version, m, d, c, dtype, labels_kind = _HEADER.unpack(fh.read(_HEADER.size))
            if magic != MAGIC:
                raise ParseError(f"{path}: bad magic {magic!r}")
            if version != VERSION:
                raise VersionMismatch(f"{path}: version {version}, expected {VERSION}")
            if dtype != _DTYPE_F64 or labels_kind != _LABELS_SOFT:
                raise ParseError(
                    f"{path}: unsupported dtype/labels tags ({dtype}, {labels_kind})"
                )
            if min(m, d, c) < 1:
                raise ParseError(f"{path}: degenerate dims m={m}, D={d}, C={c}")
            expected = _HEADER.size + 8 * (c * m * d + 2 * m * c)
            if size != expected:
                raise TruncatedFile(f"{path}: {size} bytes, expected {expected}")
            per_class = _read_f8(fh, (c, m, d), path)
            labels = _read_f8(fh, (m, c), path)
            logits = _read_f8(fh, (m, c), path)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    return GradientFeatures(
        per_class=per_class, labels=labels, dim_kind=dim_kind, model_logits=logits
    )


def _read_f8(fh, shape, path) -> np.ndarray:
    """Fill a new little-endian float64 array of this shape from fh."""
    out = np.empty(shape, dtype="<f8")
    got = fh.readinto(out.data)
    if got != out.nbytes:  # the file shrank after its size was checked
        raise TruncatedFile(f"{path}: payload ended {out.nbytes - got} bytes early")
    return out


# ----------------------------------------------------------------- reports

@dataclass(frozen=True)
class ReportRow:
    method: str
    seed: int
    s: int
    compression: float
    fidelity: float
    accuracy: float
    mse: float
    coverage: float
    recon_error: float
    condition: float
    min_eig: float


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_report(rows, path, append: bool = False) -> None:
    """Fixed-schema CSV; float cells carry 17 significant digits."""
    mode = "a" if append else "w"
    try:
        with open(path, mode, newline="") as fh:
            if not append:
                fh.write(",".join(REPORT_COLUMNS) + "\n")
            for row in rows:
                cells = [_fmt(getattr(row, col)) for col in REPORT_COLUMNS]
                fh.write(",".join(cells) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_report(path) -> list[ReportRow]:
    try:
        with open(path, newline="") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0].split(",") != list(REPORT_COLUMNS):
        raise ParseError(f"{path}: missing or wrong header row")
    out = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(REPORT_COLUMNS):
            raise ParseError(f"{path}: row has {len(cells)} cells")
        out.append(
            ReportRow(
                method=cells[0],
                seed=int(cells[1]),
                s=int(cells[2]),
                **{
                    col: float(cells[i])
                    for i, col in enumerate(REPORT_COLUMNS)
                    if i >= 3
                },
            )
        )
    return out


# ------------------------------------------------------------------ config

@dataclass
class RunConfig:
    """Every tunable of the pipeline, with defaults for all of them.

    layer_sizes fixes both the input dimension (first entry) and the class
    count (last entry). n_train and n_test must divide evenly over the
    classes. k_sketch wins over eps_jl when both are set.
    """

    seed: int = 0
    layer_sizes: list = field(default_factory=lambda: [16, 64, 64, 10])
    activation: str = "tanh"
    n_train: int = 500
    n_test: int = 500
    spread: float = 0.5
    train_lr: float = 0.05
    train_epochs: int = 100
    train_batch: int = 32
    k_sketch: int | None = None
    eps_jl: float = 0.3
    h: int = 10
    tau_v: float = 0.95
    tau_g: float = 0.5
    eps_qr: float = 1e-6
    lambda_reg: float = 1e-4
    scale_kind: str = "inv_k"
    methods: list = field(
        default_factory=lambda: ["distill", "random", "leverage", "fps", "kmeans"]
    )
    budgets: list | None = None
    sweep_h: list = field(default_factory=lambda: [5, 10, 15, 20])
    sweep_tau_v: list = field(default_factory=lambda: [0.90, 0.95, 0.99])
    sweep_tau_g: list = field(default_factory=lambda: [0.3, 0.5, 0.7, 0.9])
    sweep_seeds: list = field(default_factory=lambda: [0])
    out_dir: str = "runs"

    @property
    def class_count(self) -> int:
        return int(self.layer_sizes[-1])

    @property
    def input_dim(self) -> int:
        return int(self.layer_sizes[0])

    def validate(self) -> "RunConfig":
        """Check the type and range of every field; raise InputError if one is off.

        Integer fields take integers only (no bools, floats or strings);
        real fields take any finite integer or float.
        """
        _check_int("seed", self.seed)
        _check_list("layer_sizes", self.layer_sizes, _check_int, low=1)
        if len(self.layer_sizes) < 2:
            raise InputError(f"bad layer_sizes {self.layer_sizes}")
        if self.class_count < 2:
            raise InputError("need at least 2 output classes")
        _check_choice("activation", self.activation, ACTIVATIONS)
        for name in ("n_train", "n_test"):
            val = getattr(self, name)
            _check_int(name, val, low=self.class_count)
            if val % self.class_count:
                raise InputError(f"{name}={val} must be a positive multiple of the class count")
        _check_real("spread", self.spread, low=0.0)
        _check_real("train_lr", self.train_lr, low=0.0, low_open=True)
        _check_int("train_epochs", self.train_epochs, low=0)
        _check_int("train_batch", self.train_batch, low=1)
        if self.k_sketch is not None:
            _check_int("k_sketch", self.k_sketch, low=1)
        _check_real("eps_jl", self.eps_jl, low=0.0, high=1.0, low_open=True, high_open=True)
        _check_int("h", self.h, low=1)
        _check_real("tau_v", self.tau_v, low=0.0, high=1.0, low_open=True)
        _check_real("tau_g", self.tau_g, low=0.0, high=1.0)
        _check_real("eps_qr", self.eps_qr, low=0.0, high=1.0, low_open=True, high_open=True)
        _check_real("lambda_reg", self.lambda_reg, low=0.0)
        _check_choice("scale_kind", self.scale_kind, ("none", "inv_k"))
        _check_list("methods", self.methods, _check_choice, choices=_METHODS)
        if self.budgets is not None:
            _check_list("budgets", self.budgets, _check_int, low=1)
        _check_list("sweep_h", self.sweep_h, _check_int, low=1)
        _check_list("sweep_tau_v", self.sweep_tau_v, _check_real,
                    low=0.0, high=1.0, low_open=True)
        _check_list("sweep_tau_g", self.sweep_tau_g, _check_real, low=0.0, high=1.0)
        _check_list("sweep_seeds", self.sweep_seeds, _check_int)
        if not isinstance(self.out_dir, str):
            raise InputError(f"out_dir={self.out_dir!r}: expected a path string")
        return self


def _check_int(name: str, value, low: int | None = None) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{name}={value!r}: expected an integer")
    if low is not None and value < low:
        raise InputError(f"{name}={value!r}: expected an integer >= {low}")


def _check_real(
    name: str,
    value,
    low: float,
    high: float = math.inf,
    low_open: bool = False,
    high_open: bool = False,
) -> None:
    try:
        finite = isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if isinstance(value, bool) or not finite:
        raise InputError(f"{name}={value!r}: expected a finite number")
    if value < low or value > high or (low_open and value == low) or (high_open and value == high):
        interval = f"{'(' if low_open else '['}{low:g}, {high:g}{')' if high_open else ']'}"
        raise InputError(f"{name}={value!r} outside {interval}")


def _check_choice(name: str, value, choices) -> None:
    if not isinstance(value, str) or value not in choices:
        raise InputError(f"{name}={value!r}: expected one of {list(choices)}")


def _check_list(name: str, value, check, **limits) -> None:
    if not isinstance(value, (list, tuple)):
        raise InputError(f"{name}={value!r}: expected a list")
    for i, item in enumerate(value):
        check(f"{name}[{i}]", item, **limits)


def read_config(path) -> RunConfig:
    """Strict JSON config: unknown keys are rejected, missing ones default."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return config_from_dict(data, source=str(path))


def config_from_dict(data: dict, source: str = "config") -> RunConfig:
    if not isinstance(data, dict):
        raise ParseError(f"{source}: top level must be an object")
    names = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise UnknownField(f"{source}: unknown fields {unknown}")
    return RunConfig(**data).validate()


def write_config(cfg: RunConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(dataclasses.asdict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ------------------------------------------------------------ npz bundles

def _read_npz(path, build):
    """Open an npz archive without unpickling and build an object from it.

    A missing or unreadable file raises IoError. A file that is not an npz
    archive (text, a lone .npy array, a truncated zip), or one whose arrays
    are missing or of the wrong kind for `build`, raises ParseError.
    """
    try:
        archive = np.load(path, allow_pickle=False)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ParseError(f"{path}: not an npz archive ({exc})") from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ParseError(f"{path}: not an npz archive")
    with archive:
        try:
            return build(archive)
        except (KeyError, ValueError, TypeError, zipfile.BadZipFile) as exc:
            raise ParseError(f"{path}: bad contents ({exc})") from exc


def write_dataset(data: LabeledDataset, path) -> None:
    np.savez(
        path,
        inputs=data.inputs,
        labels=data.labels.astype(np.int64),
        class_count=np.int64(data.class_count),
    )


def read_dataset(path) -> LabeledDataset:
    return _read_npz(path, lambda z: LabeledDataset(
        inputs=z["inputs"],
        labels=z["labels"].astype(np.intp),
        class_count=int(z["class_count"]),
    ))


def write_model(params: MlpParams, path) -> None:
    np.savez(
        path,
        layer_sizes=np.array(params.layer_sizes, dtype=np.int64),
        theta=params.theta,
        activation=np.array(params.activation),
    )


def read_model(path) -> MlpParams:
    return _read_npz(path, lambda z: MlpParams(
        layer_sizes=tuple(int(s) for s in z["layer_sizes"]),
        theta=z["theta"],
        activation=str(z["activation"]),
    ))


def write_sketch_meta(op: SketchOperator, path) -> None:
    """Sketches persist as (seed, dims); the matrix regenerates on load."""
    meta = {
        "source_dim": op.source_dim,
        "target_dim": op.target_dim,
        "seed": op.seed,
        "eps_target": op.eps_target,
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_sketch_meta(path) -> SketchOperator:
    try:
        with open(path) as fh:
            meta = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise IoError(f"cannot read sketch meta {path}: {exc}") from exc
    op = sample_orthonormal(int(meta["source_dim"]), int(meta["target_dim"]), int(meta["seed"]))
    if meta.get("eps_target") is not None:
        op = SketchOperator(
            q=op.q, scale=op.scale, seed=op.seed, eps_target=float(meta["eps_target"])
        )
    return op


_PROV_KIND = {"local": 0, "gap": 1}
_PROV_NAME = {v: k for k, v in _PROV_KIND.items()}


def write_distilled(dg: DistilledGradients, report: CoverageReport, path) -> None:
    prov = np.array(
        [
            (_PROV_KIND[p[0]],) + tuple(p[1:]) + (0,) * (3 - len(p))
            for p in dg.provenance
        ],
        dtype=np.int64,
    ).reshape(len(dg.provenance), 3)
    np.savez(
        path,
        phi_hat=dg.phi_hat,
        y_hat=dg.y_hat,
        lifted_basis=dg.lifted_basis,
        eigenvalues=dg.eigenvalues,
        provenance=prov,
        r_global=np.int64(report.r_global),
        local_ranks=np.array(report.local_ranks, dtype=np.int64),
        coverage=report.coverage,
        gap_set=np.array(report.gap_set, dtype=np.int64),
        tau_v=np.float64(report.tau_v),
        tau_g=np.float64(report.tau_g),
    )


def read_distilled(path) -> tuple[DistilledGradients, CoverageReport]:
    return _read_npz(path, _build_distilled)


def _build_distilled(z) -> tuple[DistilledGradients, CoverageReport]:
    prov = tuple(
        (_PROV_NAME[int(k)], int(a), int(b)) if int(k) == 0 else (_PROV_NAME[int(k)], int(a))
        for k, a, b in z["provenance"]
    )
    dg = DistilledGradients(
        phi_hat=z["phi_hat"],
        y_hat=z["y_hat"],
        provenance=prov,
        lifted_basis=z["lifted_basis"],
        eigenvalues=z["eigenvalues"],
    )
    report = CoverageReport(
        r_global=int(z["r_global"]),
        local_ranks=tuple(int(r) for r in z["local_ranks"]),
        coverage=z["coverage"],
        gap_set=tuple(int(j) for j in z["gap_set"]),
        tau_v=float(z["tau_v"]),
        tau_g=float(z["tau_g"]),
    )
    return dg, report


def write_krr(model: KrrModel, path) -> None:
    np.savez(
        path,
        basis=model.basis,
        targets=model.targets,
        alpha=model.alpha,
        lambda_reg=np.float64(model.lambda_reg),
        rank=np.int64(model.rank),
        scale_kind=np.array(model.scale_kind),
        eig_values=model.eig_values,
        eig_vectors=model.eig_vectors,
    )


def read_krr(path) -> KrrModel:
    return _read_npz(path, lambda z: KrrModel(
        basis=z["basis"],
        targets=z["targets"],
        alpha=z["alpha"],
        lambda_reg=float(z["lambda_reg"]),
        rank=int(z["rank"]),
        scale_kind=str(z["scale_kind"]),
        eig_values=z["eig_values"],
        eig_vectors=z["eig_vectors"],
    ))


def write_selection(sel: SelectionResult, path) -> None:
    np.savez(
        path,
        indices=sel.indices.astype(np.int64),
        method=np.array(sel.method),
        seed=np.int64(sel.seed),
    )


def read_selection(path, size: int) -> np.ndarray:
    """Selected sample ids of a baseline; each must index one of `size` samples."""
    idx = _read_npz(path, lambda z: z["indices"])
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ParseError(f"{path}: indices must be a 1-d integer array")
    if idx.size and (idx.min() < 0 or idx.max() >= size):
        raise IndexOutOfRange(f"{path}: indices outside [0, {size})")
    return idx.astype(np.intp)
