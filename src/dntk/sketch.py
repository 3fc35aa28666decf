"""Seeded random projections for gradient features.

The sketch is a column-orthonormal matrix drawn from a seeded Gaussian via
QR, applied with a sqrt(P/k) scale so squared norms and inner products are
preserved in expectation. The target dimension for a tolerance eps follows
the usual log-cardinality rule: the smallest integer strictly greater than
8 ln(n) / eps^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadEps, DimMismatch, EmptyInput, KTooLarge
from .tangent import RAW_PARAMS, SKETCHED, GradientFeatures


@dataclass(frozen=True)
class SketchOperator:
    """Projection u -> scale * q.T u with orthonormal columns q (P x k)."""

    q: np.ndarray
    scale: float
    seed: int

    @property
    def source_dim(self) -> int:
        return int(self.q.shape[0])

    @property
    def target_dim(self) -> int:
        return int(self.q.shape[1])


def jl_dimension(n: int, eps: float) -> int:
    """Smallest sketch width guaranteeing (1 +/- eps) distance distortion.

    Returns the least integer strictly greater than 8 ln(n) / eps^2.
    """
    if n < 2:
        raise EmptyInput(f"need at least 2 points, got n={n}")
    if not (0.0 < eps <= 1.0):
        raise BadEps(f"eps must lie in (0, 1], got {eps}")
    return int(math.floor(8.0 * math.log(n) / eps**2)) + 1


def sample_orthonormal(p_dim: int, k: int, seed: int) -> SketchOperator:
    """QR-orthonormalized Gaussian sketch, deterministic per seed."""
    if p_dim < 1 or k < 1:
        raise EmptyInput(f"dimensions must be positive, got P={p_dim}, k={k}")
    if k > p_dim:
        raise KTooLarge(f"sketch width k={k} exceeds source dimension P={p_dim}")
    rng = np.random.default_rng(seed)
    gauss = rng.normal(size=(p_dim, k))
    q, _ = np.linalg.qr(gauss)
    return SketchOperator(q=q, scale=math.sqrt(p_dim / k), seed=seed)


def project_features(feats: GradientFeatures, op: SketchOperator) -> GradientFeatures:
    """Apply the sketch to every gradient row; labels and logits pass through."""
    if feats.dim_kind != RAW_PARAMS:
        raise DimMismatch(f"features are already {feats.dim_kind!r}; expected raw rows")
    if feats.width != op.source_dim:
        raise DimMismatch(
            f"features have width {feats.width}, sketch expects {op.source_dim}"
        )
    projected = op.scale * (feats.per_class @ op.q)
    return GradientFeatures(
        per_class=projected,
        labels=feats.labels.copy(),
        dim_kind=SKETCHED,
        model_logits=feats.model_logits.copy(),
    )
