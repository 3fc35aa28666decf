"""Serialization: gradient feature files, CSV reports, JSON run configs.

Gradient features travel in a little fixed binary format so staged CLI runs
can resume from any point. Version 4 of it, all little-endian, opens with a
23-byte header: magic DNTK1\0, u32 version 4, u32 extents m, D and C, and a
kind byte, 0 for raw parameter-space rows (a ClassRows) and 1 for sketched
ones (an array): the writer takes it from the rows' type. A raw
file then records its network: a u32 count L and L u32 layer widths, whose
parameter count must equal D and whose last width must equal C. Its
payload is the backward pass's factors as m fixed-size records, one per
sample (_factor_record): per layer in network order the (C, fan_out)
float64 logit gradients dz and the (fan_in,) float64 layer inputs a, from
which every (m, D) class block of rows follows; a sketched file's payload
is C blocks of m x D float64 rows. Both end with the m int64 class ids and
the m x C float64 model logits. The reader builds the type the kind byte
names and refuses ids outside [0, C). Raw rows are written one row batch
of records at a time from their ClassRows, in order and with no seek, and
come back as one whose every pass reads the checked file in order, one row
batch of records at a time, so a raw split's factors are never held
whole. A file of an earlier version is refused with VersionMismatch;
`dntk extract-grads` and `dntk project` write it anew.
Files that must appear together are written through replacing: into a
hidden directory first, then renamed into place. write_gradients writes
its one file that way too, so raw rows read from a file can be written
back over it.
The staged tables (report.csv, sweep.csv, kernel_stats.csv,
theory_checks.csv) are CSV, each declared once here as its columns
(ReportRow's fields, KERNEL_STATS_COLUMNS, THEORY_COLUMNS) and written by
the one write_table, floats at 17 significant digits, which makes repeated
runs byte-comparable.
Everything else (datasets, models, distilled sets, KRR models, baseline
selections) rides in npz archives, which numpy writes deterministically.
Each archive is declared once as a schema (DATASET, MODEL, DISTILLED, KRR,
SELECTION) of keys, dtype kinds and symbolic shapes. One writer stores
exactly the schema's keys in schema order, and one loader reads them back
without unpickling and checks every key, extent and float against it. A
distilled set's two dataclasses hold the DISTILLED arrays as they are: the
writer stores their fields, the reader builds them back with only its
scalars cast, and provenance is (s, 3) int64 rows (kind, a, b) in memory as
on disk.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import numbers
import os
import shutil
import struct
import tempfile
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import METHODS as BASELINE_METHODS, SelectionResult
from .distill import GAP, LOCAL, CoverageReport, DistilledGradients
from .errors import (
    InputError,
    IndexOutOfRange,
    IoError,
    ParseError,
    TruncatedFile,
    UnknownField,
    VersionMismatch,
)
from .kernel import SCALE_CHOICES
from .krr import KrrModel
from .sketch import SketchRecord
from .tangent import (ACTIVATIONS, ROW_BATCH, ClassRows, GradientFeatures, LabeledDataset,
                      MlpParams, param_count)

MAGIC = b"DNTK1\0"
VERSION = 4
# magic + version + m + D + C + kind byte (0 raw rows, 1 sketched rows)
_HEADER = struct.Struct("<6sIIIIB")

_METHODS = ("distill", "full") + BASELINE_METHODS


@contextlib.contextmanager
def replacing(directory):
    """Files that appear in directory together, or not at all.

    Yields new(name), the path of that name inside a fresh hidden .dntk-*
    directory within directory. When the block exits without an exception,
    each file written there is renamed over the file of the same name in
    directory, in sorted order; a name that is a symlink is replaced, not
    written through. Every target is checked before the first rename: a
    directory in a file's place is refused with IoError, and nothing is
    renamed. The hidden directory is removed in every case, so a block
    that fails leaves directory as it found it.
    """
    staged = Path(tempfile.mkdtemp(prefix=".dntk-", dir=directory))
    try:
        yield staged.joinpath
        names = sorted(os.listdir(staged))
        for target in (Path(directory) / name for name in names):
            if target.is_dir() and not target.is_symlink():
                raise IoError(f"cannot write {target}: a directory is in its place")
        for name in names:
            os.replace(staged / name, Path(directory) / name)
    finally:
        shutil.rmtree(staged, ignore_errors=True)


# ------------------------------------------------------- gradient features

def gradient_file_bytes(m: int, d: int, c: int, layer_sizes=None) -> int:
    """Size of a gradient file of m samples, C = c classes and width d.

    Without layer_sizes the file holds sketched rows; with them it holds
    the backward-pass factors of a network of those widths (d its
    parameter count).
    """
    if layer_sizes is None:
        return _HEADER.size + 8 * (c * m * d + m + m * c)
    factors = 4 * (1 + len(layer_sizes)) + m * _factor_record(c, layer_sizes).itemsize
    return _HEADER.size + factors + 8 * (m + m * c)


def _factor_record(c: int, layer_sizes) -> np.dtype:
    """One sample's record in a raw gradient file of C = c classes: per
    layer in network order, its logit gradients dz (C, fan_out) and then
    its inputs a (fan_in,), all little-endian float64 and packed."""
    sizes = tuple(layer_sizes)
    return np.dtype([field
                     for layer, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:]))
                     for field in ((f"dz{layer}", "<f8", (c, fan_out)),
                                   (f"a{layer}", "<f8", (fan_in,)))])


def _layers(records: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of a batch of records as the (dz, a) rows of each layer, in network order."""
    fields = [records[name] for name in records.dtype.names]
    return list(zip(fields[::2], fields[1::2]))


def write_gradients(feats: GradientFeatures, path) -> None:
    """Serialize features with their kind; byte-identical output for identical inputs.

    Raw rows (a ClassRows) are written as their factors under kind byte 0,
    one row batch of _factor_record records at a time, in the order
    ClassRows.batches hands them out; sketched rows are written one class
    block at a time under kind byte 1. The file is written through
    replacing, so rows read from the file at path, under any of its names,
    are written back over it.
    """
    m, d, c = feats.size, feats.width, feats.class_count
    rows, path = feats.per_class, Path(path)
    try:
        with replacing(path.parent) as new, open(new(path.name), "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, VERSION, m, d, c, 0 if feats.raw else 1))
            if feats.raw:
                sizes = rows.layer_sizes
                fh.write(np.array((len(sizes), *sizes), dtype="<u4").data)
                record, batches = _factor_record(c, sizes), rows.batches()
                for start in range(0, m, ROW_BATCH):  # each batch dropped before the next
                    fh.write(_records(next(batches), record).data)
            else:
                for ci in range(c):
                    fh.write(np.ascontiguousarray(rows[ci], dtype="<f8").data)
            fh.write(np.ascontiguousarray(feats.labels, dtype="<i8").data)
            fh.write(np.ascontiguousarray(feats.model_logits, dtype="<f8").data)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _records(layers, record: np.dtype) -> np.ndarray:
    """One batch's (dz, a) layer factors, in network order, as records."""
    out = np.empty(len(layers[0][1]), dtype=record)
    for (dz_out, a_out), (dz, a) in zip(_layers(out), layers):
        dz_out[...], a_out[...] = dz, a
    return out


def read_gradients(path) -> GradientFeatures:
    """Parse a gradient feature file written by write_gradients.

    The features come back as the kind the header records. The header,
    a raw file's layer widths and the file size are checked first; class
    ids outside [0, C) are refused after they are read. Sketched rows are
    read straight into a (C, m, D) array, so reading holds one copy. Raw
    rows are not read here: they come as a ClassRows whose passes are
    _factor_batches over the checked file, each of which opens it once,
    checks its header and size again and reads one row batch of records
    at a time. So a file that shrinks or vanishes before its rows are read
    is refused then, with TruncatedFile or IoError, and the class ids and
    logits are all that reading holds.
    """
    try:
        with open(path, "rb") as fh:
            m, d, c, sizes = _read_header(fh, path)
            if sizes is None:
                per_class = _read_array(fh, (c, m, d), "<f8", path)
            else:
                extents = (m, d, c, sizes)
                per_class = ClassRows(sizes, m, functools.partial(_factor_batches, path, extents))
                fh.seek(m * _factor_record(c, sizes).itemsize, os.SEEK_CUR)
            labels = _read_array(fh, (m,), "<i8", path)
            logits = _read_array(fh, (m, c), "<f8", path)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    _require(labels.min() >= 0 and labels.max() < c, path, f"class ids outside [0, {c})")
    return GradientFeatures(per_class, labels, logits)


def _factor_batches(path, extents):
    """One pass over the factors of a raw gradient file whose header read
    as extents (m, D, C, layer widths): the file is opened once and its
    header and size are checked again; then each step reads the next
    ROW_BATCH records into a new array and yields views of their (dz, a)
    rows per layer, in network order. The file is closed when the pass
    ends or is dropped."""
    m, _, c, sizes = extents
    record = _factor_record(c, sizes)
    try:
        with open(path, "rb") as fh:
            if _read_header(fh, path) != extents:
                raise ParseError(f"{path}: the header changed after the file was read")
            for start in range(0, m, ROW_BATCH):
                # no local keeps the batch, so the consumer's drop frees it
                yield _layers(_read_array(fh, (min(ROW_BATCH, m - start),), record, path))
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def _read_header(fh, path):
    """(m, D, C, layer widths) of an open gradient file, the widths None for
    sketched rows, with fh left at the payload. The header, a raw file's
    layer widths and the file size are checked."""
    size = os.fstat(fh.fileno()).st_size
    if size < _HEADER.size:
        raise TruncatedFile(f"{path}: {size} bytes is shorter than the header")
    magic, version, m, d, c, kind = _HEADER.unpack(fh.read(_HEADER.size))
    if magic != MAGIC:
        raise ParseError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise VersionMismatch(
            f"{path}: format version {version}, expected {VERSION}; "
            "run `dntk extract-grads` and `dntk project` again to rewrite it"
        )
    if kind > 1:
        raise ParseError(f"{path}: unknown kind byte {kind}")
    if min(m, d, c) < 1:
        raise ParseError(f"{path}: degenerate dims m={m}, D={d}, C={c}")
    sizes = _read_layer_sizes(fh, size, d, c, path) if kind == 0 else None
    expected = gradient_file_bytes(m, d, c, sizes)
    if size != expected:
        raise TruncatedFile(f"{path}: {size} bytes, expected {expected}")
    return m, d, c, sizes


def _read_layer_sizes(fh, size: int, d: int, c: int, path) -> tuple[int, ...]:
    """A raw file's layer widths, checked against its width D and class count C."""
    if size < _HEADER.size + 4:
        raise TruncatedFile(f"{path}: {size} bytes ends before the layer count")
    count = int(_read_array(fh, (1,), "<u4", path)[0])
    if size < _HEADER.size + 4 * (1 + count):
        raise TruncatedFile(f"{path}: {size} bytes ends inside {count} layer widths")
    sizes = tuple(int(w) for w in _read_array(fh, (count,), "<u4", path))
    _require(count >= 2 and min(sizes) >= 1, path,
             f"need at least 2 layer widths, each >= 1, got {sizes}")
    _require(param_count(sizes) == d and sizes[-1] == c, path,
             f"layer widths {sizes} give {param_count(sizes)} parameters and "
             f"{sizes[-1]} classes, the header says D={d}, C={c}")
    return sizes


def _read_array(fh, shape, dtype, path) -> np.ndarray:
    """Fill a new array of this shape and little-endian dtype from fh."""
    out = np.empty(shape, dtype=dtype)
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


REPORT_COLUMNS = tuple(f.name for f in dataclasses.fields(ReportRow))
# kernel_stats.csv: one row per class kernel
KERNEL_STATS_COLUMNS = ("class", "trace", "trunc_rank", "condition", "min_eig", "effective_dim")
# theory_checks.csv: one row per check, passed as 0 or 1
THEORY_COLUMNS = ("check", "value", "threshold", "passed")


def write_table(rows, path, columns) -> None:
    """The one CSV writer of the staged tables: a header row of columns, then
    one line per row of cells in column order, float cells at 17 significant
    digits and every other cell as str.
    """
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(map(_fmt, row)) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_report(rows, path) -> None:
    """report.csv and sweep.csv: ReportRows through write_table.

    The method label is written as is and may hold commas (sweep labels
    do); no other cell can, so read_report splits rows from the right. A
    label that _holds_row, holds a line break, which would end its row
    early, or is not UTF-8 is refused with InputError before anything is
    written, as read_report refuses such a row. Floats at 17 significant
    digits read back as the same floats, so rows that read_report returns
    are written back as the same text.
    """
    rows = list(rows)
    for row in rows:
        if _holds_row(row.method):
            raise InputError(f"method label {row.method!r} holds as many commas as a row")
        if "\n" in row.method or "\r" in row.method:
            raise InputError(f"method label {row.method!r} holds a line break")
        if any("\ud800" <= ch <= "\udfff" for ch in row.method):  # UTF-8 has no surrogates
            raise InputError(f"method label {row.method!r} is not UTF-8 text")
    write_table(map(dataclasses.astuple, rows), path, REPORT_COLUMNS)


# cell parsers of REPORT_COLUMNS: method label, seed, s, then the metrics
_REPORT_TYPES = (str, int, int) + (float,) * (len(REPORT_COLUMNS) - 3)


def _holds_row(label: str) -> bool:
    """Whether a method label has as many commas as a whole row: a row that
    lost its newline reads back with the next row glued into its label, so
    neither the reader nor the writer takes such a label."""
    return label.count(",") >= len(REPORT_COLUMNS) - 1


def read_report(path) -> list[ReportRow]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from exc
    if not lines or lines[0].split(",") != list(REPORT_COLUMNS):
        raise ParseError(f"{path}: missing or wrong header row")
    out = []
    for row, ln in enumerate(lines[1:], start=1):
        # only the method label can hold a comma (sweep labels do)
        cells = ln.rsplit(",", len(REPORT_COLUMNS) - 1)
        if len(cells) != len(REPORT_COLUMNS):
            raise ParseError(f"{path}: row {row} has {len(cells)} cells")
        if _holds_row(cells[0]):
            raise ParseError(f"{path}: row {row} holds another row in its label {cells[0]!r}")
        values = {}
        for col, kind, cell in zip(REPORT_COLUMNS, _REPORT_TYPES, cells):
            try:
                values[col] = kind(cell)
            except ValueError as exc:
                raise ParseError(f"{path}: row {row}: bad {col} cell {cell!r}") from exc
        out.append(ReportRow(**values))
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
        _check_choice("scale_kind", self.scale_kind, SCALE_CHOICES)
        _check_list("methods", self.methods, _check_choice, choices=_METHODS)
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
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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


# ------------------------------------------------------------ npz bundles

_INT, _FLOAT, _STR = "iu", "f", "U"

DATASET = {"inputs": (_FLOAT, "n d"), "labels": (_INT, "n"), "class_count": (_INT, "")}
MODEL = {"layer_sizes": (_INT, "L"), "theta": (_FLOAT, "P"), "activation": (_STR, "")}
DISTILLED = {
    "phi_hat": (_FLOAT, "C s D"),
    "y_hat": (_FLOAT, "s C"),
    "lifted_basis": (_FLOAT, "m s"),
    "eigenvalues": (_FLOAT, "s"),
    "provenance": (_INT, "s 3"),
    "r_global": (_INT, ""),
    "local_ranks": (_INT, "h"),
    "coverage": (_FLOAT, "r"),
    "gap_set": (_INT, "g"),
    "tau_v": (_FLOAT, ""),
    "tau_g": (_FLOAT, ""),
}
KRR = {
    "basis": (_FLOAT, "C s D"),
    "alpha": (_FLOAT, "s C"),
    "lambda_reg": (_FLOAT, ""),
    "scale_kind": (_STR, ""),
}
SELECTION = {"indices": (_INT, "s"), "method": (_STR, ""), "seed": (_INT, "")}


def _read_npz(path, schema) -> dict:
    """The arrays of an npz archive, read without unpickling and checked against schema.

    A schema maps each key to its allowed dtype kinds and its shape as
    space-separated symbols ("" for a scalar): a symbol is one extent across
    the archive, a digit a fixed extent. A missing or unreadable file raises
    IoError. A file that is not an npz archive (text, a lone .npy array, a
    truncated zip) raises ParseError, as does a key that is missing, of
    another kind or rank, of an extent its symbol disagrees with, or a float
    key holding NaN or inf.
    """
    out, extents = {}, {}
    with contextlib.ExitStack() as opened:  # the file is closed however np.load fails
        try:
            archive = np.load(opened.enter_context(open(path, "rb")), allow_pickle=False)
        except OSError as exc:
            raise IoError(f"cannot read {path}: {exc}") from exc
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise ParseError(f"{path}: not an npz archive ({exc})") from exc
        _require(isinstance(archive, np.lib.npyio.NpzFile), path, "not an npz archive")
        for key, (kinds, shape) in schema.items():
            try:
                a = archive[key]
            except (KeyError, ValueError, zipfile.BadZipFile) as exc:
                raise ParseError(f"{path}: cannot read {key!r} ({exc})") from exc
            symbols = shape.split()
            want = tuple(int(t) if t.isdigit() else extents.setdefault(t, n)
                         for t, n in zip(symbols, a.shape))
            _require(a.dtype.kind in kinds and a.ndim == len(symbols) and a.shape == want, path,
                     f"{key} is {a.dtype} {a.shape}, expected {kinds!r} ({shape}), {extents}")
            _require(kinds != _FLOAT or np.isfinite(a).all(), path, f"{key} holds NaN or inf")
            out[key] = a
    return out


def _require(ok, path, message: str) -> None:
    if not ok:
        raise ParseError(f"{path}: {message}")


def _write_npz(path, schema, values) -> None:
    """Store values[key] for every key of schema, in schema order."""
    np.savez(path, **{key: values[key] for key in schema})


def write_dataset(data: LabeledDataset, path) -> None:
    _write_npz(path, DATASET, vars(data))


def read_dataset(path) -> LabeledDataset:
    z = _read_npz(path, DATASET)
    labels, count = z["labels"], int(z["class_count"])
    _require(count >= 2, path, f"class_count must be >= 2, got {count}")
    _require(((labels >= 0) & (labels < count)).all(), path, f"labels outside [0, {count})")
    return LabeledDataset(z["inputs"], labels.astype(np.intp), count)


def write_model(params: MlpParams, path) -> None:
    _write_npz(path, MODEL, vars(params))


def read_model(path) -> MlpParams:
    z = _read_npz(path, MODEL)
    sizes, theta, activation = tuple(map(int, z["layer_sizes"])), z["theta"], str(z["activation"])
    _require(len(sizes) >= 2 and min(sizes) >= 1, path,
             f"layer_sizes must be >= 2 widths >= 1, got {sizes}")
    _require(theta.size == param_count(sizes), path,
             f"theta has {theta.size} entries, layer_sizes {sizes} need {param_count(sizes)}")
    _require(activation in ACTIVATIONS, path,
             f"activation must be one of {ACTIVATIONS}, got {activation!r}")
    return MlpParams(sizes, theta, activation)


def write_sketch_meta(record: SketchRecord, path) -> None:
    """A sketch persists as its record, one JSON key per field. The matrix
    is never stored: sample_orthonormal(source_dim, target_dim, seed)
    redraws it."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(record), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_distilled(dg: DistilledGradients, report: CoverageReport, path) -> None:
    _write_npz(path, DISTILLED, {**vars(dg), **vars(report)})


def read_distilled(path) -> tuple[DistilledGradients, CoverageReport]:
    z = _read_npz(path, DISTILLED)
    _require(np.isin(z["provenance"][:, 0], (LOCAL, GAP)).all(), path,
             f"provenance kinds must be {LOCAL} (local) or {GAP} (gap)")
    z.update(r_global=int(z["r_global"]), tau_v=float(z["tau_v"]), tau_g=float(z["tau_g"]))
    return tuple(cls(**{f.name: z[f.name] for f in dataclasses.fields(cls)})
                 for cls in (DistilledGradients, CoverageReport))


def write_krr(model: KrrModel, path) -> None:
    _write_npz(path, KRR, vars(model))


def read_krr(path) -> KrrModel:
    z = _read_npz(path, KRR)
    z.update(lambda_reg=float(z["lambda_reg"]), scale_kind=str(z["scale_kind"]))
    return KrrModel(**z)


def write_selection(sel: SelectionResult, path) -> None:
    _write_npz(path, SELECTION, vars(sel))


def read_selection(path, size: int) -> np.ndarray:
    """Selected sample ids of a baseline: distinct (else ParseError), each
    indexing one of `size` samples."""
    idx = _read_npz(path, SELECTION)["indices"]
    if idx.size and (idx.min() < 0 or idx.max() >= size):
        raise IndexOutOfRange(f"{path}: indices outside [0, {size})")
    _require(np.unique(idx).size == idx.size, path, "sample ids repeat")
    return idx.astype(np.intp)
