"""Seeded random projections for gradient features.

The sketch is a column-orthonormal matrix: a seeded Gaussian P x k draw
orthonormalized in place by shifted CholeskyQR2 (Fukaya et al., SIAM J. Sci.
Comput. 2020), applied with a sqrt(P/k) scale so squared norms and inner
products are preserved in expectation. Each of the two passes forms the
k x k Gram, takes its Cholesky factor R and overwrites the draw with
draw @ R^-1 one row block at a time through one reused block buffer, so no
second P x k array exists; a LAPACK QR would copy the draw several times.
The result spans the same columns as the draw and is the Q of its QR
factorization with a positive diagonal R, so it differs from LAPACK's Q
only by column signs and roundoff. The target dimension for a tolerance
eps follows the usual log-cardinality rule: the smallest integer strictly
greater than 8 ln(n) / eps^2. A draw the machine's free memory cannot hold
is refused with InsufficientMemory before it is made, by require_memory,
which guards the kernel stack and the ridge eigenvectors the same way.

One contraction applies it, _fused_sketch, and it takes the backward
pass's factors from one producer interface, a ClassRows's batches(), in
network order: the live backward pass for the in-process task
(pipeline.sketched_features) and the per-sample records a raw gradient
file stores for the staged CLI (project_features), read one row batch at
a time and handed out as views of their fields; tangent.param_blocks
places each layer in q. Both hand out ROW_BATCH rows at a time, the only
row batch there is, and the contraction takes COL_BLOCK sketch columns at
a time, the only column block there is, so the staged sketch equals the
in-process one bit for bit, and neither builds a P-wide row. Besides its
(C, n, k) output the contraction holds one batch of factors and a
workspace, neither of which grows with k; sketch_bytes gives all three,
and an output the machine's free memory cannot hold is refused before it is
made. project_features takes raw rows only, which are a ClassRows by type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import BadEps, DimMismatch, EmptyInput, InsufficientMemory, KTooLarge
from .tangent import ROW_BATCH, ClassRows, GradientFeatures, param_blocks

# rows overwritten per block by a CholeskyQR pass; bounds its temporary
_QR_BLOCK_ROWS = 1024
# sketch columns contracted per block by _fused_sketch; bounds its workspace.
# A constant, not a setting: BLAS can round the last columns of a narrower
# product differently, so another width can move the sketch's bits
COL_BLOCK = 64


@dataclass(frozen=True)
class SketchRecord:
    """What identifies a sketch: its two widths and its seed.

    sample_orthonormal(**asdict(record)) redraws the matrix bit for bit, so
    these three fields are all `sketch.json` stores and all the in-process
    task keeps once its features are sketched. The scale is derived from
    the widths.
    """

    source_dim: int
    target_dim: int
    seed: int

    @property
    def scale(self) -> float:
        return math.sqrt(self.source_dim / self.target_dim)


@dataclass(frozen=True, eq=False)
class SketchOperator(SketchRecord):
    """Projection u -> scale * q.T u with orthonormal columns q
    (source_dim x target_dim).

    The matrix is the largest array a sketch has; `record` is all of it
    that needs to outlive the projection.
    """

    q: np.ndarray

    @property
    def record(self) -> SketchRecord:
        return SketchRecord(self.source_dim, self.target_dim, self.seed)


def jl_dimension(n: int, eps: float) -> int:
    """Smallest sketch width guaranteeing (1 +/- eps) distance distortion.

    Returns the least integer strictly greater than 8 ln(n) / eps^2.
    """
    if n < 2:
        raise EmptyInput(f"need at least 2 points, got n={n}")
    if not (0.0 < eps <= 1.0):
        raise BadEps(f"eps must lie in (0, 1], got {eps}")
    return int(math.floor(8.0 * math.log(n) / eps**2)) + 1


def sample_orthonormal(source_dim: int, target_dim: int, seed: int) -> SketchOperator:
    """Gaussian P x k sketch (P = source_dim, k = target_dim) orthonormalized
    in place, deterministic per seed.

    One shifted CholeskyQR pass, with the shift 11 (P k + k (k + 1)) u
    ||X||_F^2 of Fukaya et al. (u the unit roundoff), brings the draw close
    to orthonormal whatever its conditioning, square draws included; one
    plain pass then makes the columns orthonormal to working accuracy.
    A draw whose 8 P k bytes exceed available_memory() is refused with
    InsufficientMemory before it is made.
    """
    p, k = source_dim, target_dim
    if p < 1 or k < 1:
        raise EmptyInput(f"dimensions must be positive, got P={p}, k={k}")
    if k > p:
        raise KTooLarge(f"sketch width k={k} exceeds source dimension P={p}")
    require_memory(8 * p * k, f"a {p} x {k} sketch")
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(p, k))
    unit_roundoff = np.finfo(np.float64).eps / 2.0
    _cholesky_qr_pass(q, shift_rel=11.0 * (p * k + k * (k + 1)) * unit_roundoff)
    _cholesky_qr_pass(q, shift_rel=0.0)
    return SketchOperator(p, k, seed, q)


def require_memory(nbytes: int, what: str) -> None:
    """InsufficientMemory, before an array of nbytes is made, unless it fits
    in available_memory(); nothing is refused when that cannot be read."""
    left = available_memory()
    if left is not None and nbytes > left:
        raise InsufficientMemory(
            f"{what} needs {nbytes} bytes, {left} bytes of memory are available")


def available_memory(root="/") -> int | None:
    """Bytes of memory left to this process, None when that cannot be read.

    The smallest of MemAvailable from /proc/meminfo and, for each memory
    controller /proc/self/cgroup lists, the room its group has left: the
    cgroup v2 entry (0::/path) gives memory.max - memory.current, a cgroup
    v1 one (N:...memory...:/path, as on hybrid hosts) gives
    memory.limit_in_bytes - memory.usage_in_bytes. Files that cannot be
    read are skipped. The paths are read under root.
    """
    root = Path(root)
    left = []
    try:
        meminfo = (root / "proc/meminfo").read_text().splitlines()
        left += [int(ln.split()[1]) * 1024 for ln in meminfo if ln.startswith("MemAvailable:")]
    except (OSError, ValueError, IndexError):
        pass
    try:
        cgroup = (root / "proc/self/cgroup").read_text().splitlines()
    except OSError:
        cgroup = []
    for entry in (line.split(":", 2) for line in cgroup):
        if len(entry) != 3:
            continue
        _, controllers, own = entry
        if controllers == "":
            group, limit, usage = root / "sys/fs/cgroup", "memory.max", "memory.current"
        elif "memory" in controllers.split(","):
            group = root / "sys/fs/cgroup" / controllers
            limit, usage = "memory.limit_in_bytes", "memory.usage_in_bytes"
        else:
            continue
        group = group / own.lstrip("/")
        try:
            cap = (group / limit).read_text().strip()
            if cap != "max":
                left.append(int(cap) - int((group / usage).read_text()))
        except (OSError, ValueError):
            pass
    return min(left) if left else None


def _cholesky_qr_pass(x: np.ndarray, shift_rel: float) -> None:
    """x <- x R^-1 in place, where R^T R = x^T x + shift_rel * ||x||_F^2 I."""
    gram = x.T @ x
    gram[np.diag_indices_from(gram)] += shift_rel * np.trace(gram)
    r_inv = np.linalg.inv(np.linalg.cholesky(gram)).T  # R = L^T
    buf = np.empty((min(_QR_BLOCK_ROWS, x.shape[0]), x.shape[1]))
    for start in range(0, x.shape[0], _QR_BLOCK_ROWS):
        block = x[start : start + _QR_BLOCK_ROWS]
        product = buf[: block.shape[0]]
        np.matmul(block, r_inv, out=product)
        block[...] = product


def project_features(feats: GradientFeatures, op: SketchOperator) -> GradientFeatures:
    """Sketch every raw gradient row; labels and logits pass through.

    Raw rows are a ClassRows, the backward pass's factors; _fused_sketch
    contracts their factors with q in batches of ROW_BATCH rows, as the
    in-process sketch contracts the live backward pass's, so both make the
    same (C, n, k) bits from the same factors. The rows are read or made
    one batch at a time, so the call holds q, its output, the workspace and
    one batch of factors; a file that shrank or vanished since
    read_gradients raises TruncatedFile or IoError. No P-wide row is built.
    Rows that are not a ClassRows are sketched already and are refused with
    DimMismatch.
    """
    if not feats.raw:
        raise DimMismatch("features are sketched already; expected raw rows")
    return replace(feats, per_class=_fused_sketch(feats.per_class, op))


def sketch_bytes(layer_sizes, n: int, k: int) -> int:
    """Bytes _fused_sketch holds to sketch n samples of a network of these
    layer widths to width k: its (C, n, k) output, the one batch of
    ROW_BATCH rows' factors a ClassRows hands it (dz and a of every
    layer), and its workspace, a T block of max(fan_out) x ROW_BATCH x
    COL_BLOCK floats and two (ROW_BATCH, C, COL_BLOCK) blocks for dz @ T
    and its running sum. Only the output grows with k."""
    c = layer_sizes[-1]
    rows, cols = min(ROW_BATCH, n), min(COL_BLOCK, k)
    factors = sum(c * fan_out + fan_in
                  for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]))
    return 8 * (c * n * k + rows * (factors + (max(layer_sizes[1:]) + 2 * c) * cols))


def _fused_sketch(raw: ClassRows, op: SketchOperator) -> np.ndarray:
    """The (C, n, k) sketch of the raw rows' per-logit Jacobian, contracted per layer.

    raw.batches() yields, per consecutive batch of ROW_BATCH rows, the
    (dz, a) factors of each layer in network order, from the live backward
    pass (ClassRows.of_backprop) or from a file. The rows of q in layer l's
    param_blocks weight slice form Q_l (fan_out, fan_in, k), and (dz x a)
    @ Q_l = dz @ T with T[o] = a @ Q_l[o] + (bias row o of q). T is computed
    once per sample with no class factor, so a sample costs about 2 (P + C
    * sum(fan_out)) k flops instead of the 2 C P k of multiplying its (C,
    P) Jacobian by q, and no P-wide row is built.

    A batch is sketched COL_BLOCK columns of q at a time, every layer per
    block: the layer's T block goes into one max(fan_out) * ROW_BATCH *
    COL_BLOCK workspace, and two (ROW_BATCH, C, COL_BLOCK) blocks take dz @ T
    and its sum over the layers, which is scaled into the block's output
    columns. The same three blocks serve every batch, column block and
    layer, so the call's peak memory is its output plus the batch's factors
    and a workspace, which do not grow with k (sketch_bytes), and each
    product keeps the shape and summation order of freshly allocated
    per-block arrays. Each batch is contracted by _sketch_batch, so its
    factors are dropped before the next batch is read or computed. An
    output, factors and workspace beyond available_memory() are refused
    with InsufficientMemory before they are made; a sketch of another
    source width than the rows' P is refused with DimMismatch.
    """
    c, n, width = raw.shape
    if width != op.source_dim:
        raise DimMismatch(f"features have width {width}, sketch expects {op.source_dim}")
    sizes, k, q = raw.layer_sizes, op.target_dim, op.q
    require_memory(sketch_bytes(sizes, n, k), f"sketching {n} rows to {c} x {k}")
    rows, block = min(ROW_BATCH, n), min(COL_BLOCK, k)
    t_flat = np.empty(max(sizes[1:]) * rows * block)
    acc_full, prod_full = np.empty((2, rows, c, block))
    out = np.empty((c, n, k))
    blocks, batches = param_blocks(sizes), raw.batches()
    for start in range(0, n, ROW_BATCH):
        b = min(ROW_BATCH, n - start)
        _sketch_batch(next(batches), blocks, q, op.scale, t_flat, acc_full[:b], prod_full[:b],
                      out[:, start : start + b])
    return out


def _sketch_batch(layers, blocks, q, scale, t_flat, acc_full, prod_full, out) -> None:
    """Sketch one batch's (dz, a) layer factors, in network order like the
    param_blocks blocks, into out (C, b, k), in COL_BLOCK column blocks
    through _fused_sketch's workspace: t_flat for each layer's T block, and
    the (b, C, COL_BLOCK) acc_full and prod_full for dz @ T and its running
    sum. The layers are summed last layer first; that order fixes the bits."""
    k, b = q.shape[1], out.shape[1]
    # each layer's factors with its weight rows Q_l and bias rows of q, last layer first
    parts = [(dz, a, q[w_at].reshape(fan_out, fan_in, k), q[b_at, None, :])
             for (dz, a), (w_at, b_at, fan_out, fan_in) in zip(layers, blocks)][::-1]
    for j0 in range(0, k, COL_BLOCK):
        cols = slice(j0, min(j0 + COL_BLOCK, k))
        w = cols.stop - j0
        acc, prod = acc_full[:, :, :w], prod_full[:, :, :w]
        acc.fill(0.0)  # summed from zero, like a fresh accumulator: same bits
        for dz, a, q_w, q_b in parts:
            t = t_flat[: q_w.shape[0] * b * w].reshape(q_w.shape[0], b, w)
            np.matmul(a, q_w[:, :, cols], out=t)
            t += q_b[:, :, cols]
            np.matmul(dz, t.transpose(1, 0, 2), out=prod)
            acc += prod
        np.multiply(acc.transpose(1, 0, 2), scale, out=out[:, :, cols])
