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
greater than 8 ln(n) / eps^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BadEps, DimMismatch, EmptyInput, KTooLarge
from .tangent import RAW_PARAMS, SKETCHED, GradientFeatures

# rows overwritten per block by a CholeskyQR pass; bounds its temporary
_QR_BLOCK_ROWS = 1024


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
    """
    p, k = source_dim, target_dim
    if p < 1 or k < 1:
        raise EmptyInput(f"dimensions must be positive, got P={p}, k={k}")
    if k > p:
        raise KTooLarge(f"sketch width k={k} exceeds source dimension P={p}")
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(p, k))
    unit_roundoff = np.finfo(np.float64).eps / 2.0
    _cholesky_qr_pass(q, shift_rel=11.0 * (p * k + k * (k + 1)) * unit_roundoff)
    _cholesky_qr_pass(q, shift_rel=0.0)
    return SketchOperator(p, k, seed, q)


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

    Raw rows are taken one class at a time, as a ClassRows hands them out:
    each class's (n, P) block is multiplied by q straight into its slice of
    the (C, n, k) output, which is scaled once at the end. So the sketch
    holds q, its output and one raw class block, and each block's product
    is the one a whole (C, n, P) @ q product makes for that class.
    """
    if feats.dim_kind != RAW_PARAMS:
        raise DimMismatch(f"features are already {feats.dim_kind!r}; expected raw rows")
    if feats.width != op.source_dim:
        raise DimMismatch(
            f"features have width {feats.width}, sketch expects {op.source_dim}"
        )
    out = np.empty((feats.class_count, feats.size, op.target_dim))
    for c in range(feats.class_count):
        np.matmul(feats.per_class[c], op.q, out=out[c])
    out *= op.scale
    return replace(feats, per_class=out, dim_kind=SKETCHED)
