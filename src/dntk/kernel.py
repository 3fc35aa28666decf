"""Per-class gradient kernels and their spectral diagnostics.

A class kernel is the Gram matrix of one class's gradient rows, optionally
scaled by 1/width so eigenvalues stay comparable across sketch sizes. The
class-averaged kernel drives clustering and distillation; the spectral
summaries back redundancy certificates and the bias/variance diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadEps,
    BadLambda,
    ClassOutOfRange,
    LengthMismatch,
    NonOrthonormalBasis,
    ScaleMismatch,
    ZeroTrace,
)
from .numerics import EigenSystem, as_matrix, sym_eig
from .tangent import GradientFeatures

SCALE_KINDS = ("none", "inv_k")
# eigenvalues below this fraction of the trace are treated as pure noise
EIG_FLOOR_REL = 1e-12


@dataclass(frozen=True)
class KernelStack:
    """One Gram matrix per class, all built at the same scale."""

    per_class: np.ndarray  # (C, n, n)
    scale_kind: str
    source_width: int

    @property
    def class_count(self) -> int:
        return int(self.per_class.shape[0])

    @property
    def size(self) -> int:
        return int(self.per_class.shape[1])


@dataclass(frozen=True)
class SpectralSummary:
    eig: EigenSystem
    trunc_rank: int
    trace: float
    condition: float
    min_eig: float


def scale_factor(scale_kind: str, width: int) -> float:
    if scale_kind not in SCALE_KINDS:
        raise ScaleMismatch(f"scale_kind must be one of {SCALE_KINDS}, got {scale_kind!r}")
    return 1.0 / width if scale_kind == "inv_k" else 1.0


def class_kernel(feats: GradientFeatures, c: int, scale_kind: str = "inv_k") -> np.ndarray:
    """Symmetrized Gram matrix of class c's gradient rows."""
    if not (0 <= c < feats.class_count):
        raise ClassOutOfRange(f"class {c} out of range for {feats.class_count} classes")
    phi = feats.per_class[c]
    k = scale_factor(scale_kind, feats.width) * (phi @ phi.T)
    return 0.5 * (k + k.T)


def build_stack(feats: GradientFeatures, scale_kind: str = "inv_k") -> KernelStack:
    kernels = np.stack(
        [class_kernel(feats, c, scale_kind) for c in range(feats.class_count)]
    )
    return KernelStack(per_class=kernels, scale_kind=scale_kind, source_width=feats.width)


def average_kernel(stack: KernelStack) -> np.ndarray:
    """Unweighted mean of the per-class kernels."""
    mean = stack.per_class.mean(axis=0)
    return 0.5 * (mean + mean.T)


def truncation_rank(eigvals, eps: float) -> int:
    """Smallest r whose leading eigenvalues hold a 1 - eps trace fraction.

    Negative eigenvalues (roundoff from Gram products) are clamped to zero
    before the cumulative sums. eps = 0 asks for the full numerical trace.
    """
    if not (0.0 <= eps < 1.0):
        raise BadEps(f"eps must lie in [0, 1), got {eps}")
    vals = np.maximum(np.asarray(eigvals, dtype=np.float64), 0.0)
    total = vals.sum()
    if total <= 0.0:
        raise ZeroTrace("kernel trace is zero; no spectrum to truncate")
    cum = np.cumsum(vals) / total
    cum[-1] = 1.0  # guard against cumsum rounding below the exact total
    return int(np.searchsorted(cum, 1.0 - eps, side="left")) + 1


def spectral_summary(kernel_matrix, eps: float = 0.05, ridge: float = 0.0) -> SpectralSummary:
    eig = sym_eig(kernel_matrix)
    condition, min_eig = spectrum_conditioning(eig.values, ridge)
    return SpectralSummary(
        eig=eig,
        trunc_rank=truncation_rank(eig.values, eps),
        trace=float(eig.values.sum()),
        condition=condition,
        min_eig=min_eig,
    )


def spectrum_conditioning(eigvals, ridge: float = 0.0) -> tuple[float, float]:
    """(condition number of K + ridge I, raw minimum eigenvalue of K) from K's spectrum.

    The condition number is the largest shifted eigenvalue over the smallest
    positive one, inf when none is positive. A shifted eigenvalue counts as
    positive only above len(vals) * eps * max |shifted| (numpy's matrix_rank
    tolerance), so on a rank-deficient K the roundoff eigenvalues of its null
    space do not set the ratio.
    """
    vals = np.asarray(eigvals, dtype=np.float64)
    shifted = vals + ridge
    tol = shifted.size * np.finfo(np.float64).eps * np.abs(shifted).max()
    positive = shifted[shifted > tol]
    condition = float(shifted.max() / positive.min()) if positive.size else float("inf")
    return condition, float(vals.min())


def conditioning(kernel_matrix, ridge: float = 0.0) -> tuple[float, float]:
    """(condition number of K + ridge I, raw minimum eigenvalue of K)."""
    if ridge < 0.0:
        raise BadLambda(f"ridge must be >= 0, got {ridge}")
    summary = spectral_summary(kernel_matrix, ridge=ridge)
    return summary.condition, summary.min_eig


def data_redundancy_certificate(
    kernel_matrix, r_factor: float = 10.0, eps: float = 0.05
) -> tuple[bool, SpectralSummary]:
    """Does a 1 - eps trace fraction fit in n / r_factor eigendirections?"""
    if r_factor <= 0.0:
        raise BadEps(f"r_factor must be positive, got {r_factor}")
    summary = spectral_summary(kernel_matrix, eps=eps)
    n = np.asarray(kernel_matrix).shape[0]
    return summary.trunc_rank <= n / r_factor, summary


def parameter_redundancy_error(phi, basis) -> float:
    """Relative kernel error from replacing rows with their projection.

    basis columns must be orthonormal; returns
    ||P P^T - Phi Phi^T||_F / ||Phi Phi^T||_F with P = Phi V V^T.
    """
    phi_m = as_matrix(phi, "phi")
    v = as_matrix(basis, "basis")
    if v.shape[0] != phi_m.shape[1]:
        raise LengthMismatch(
            f"basis lives in dim {v.shape[0]}, rows have width {phi_m.shape[1]}"
        )
    gram = v.T @ v
    if np.abs(gram - np.eye(v.shape[1])).max() > 1e-8:
        raise NonOrthonormalBasis("basis columns are not orthonormal within 1e-8")
    full = phi_m @ phi_m.T
    proj = phi_m @ v
    approx = proj @ proj.T
    denom = np.linalg.norm(full)
    if denom == 0.0:
        raise ZeroTrace("zero gradient matrix has no kernel to approximate")
    return float(np.linalg.norm(approx - full) / denom)


def effective_dimension(eigvals, lam: float) -> float:
    """sum_j mu_j / (mu_j + lam) over the clamped spectrum."""
    if lam <= 0.0:
        raise BadLambda(f"lambda must be > 0, got {lam}")
    mu = np.maximum(np.asarray(eigvals, dtype=np.float64), 0.0)
    return float((mu / (mu + lam)).sum())


def bias_variance_diagnostics(
    eigvals, coefficients, lam: float, n: int, noise_var: float = 0.0
) -> tuple[float, float]:
    """Squared regularization bias and the noise-variance bound.

    coefficients are the target expansion in the kernel eigenbasis. With
    lam = 0 the bias vanishes and the variance bound uses the numerical
    rank in place of the effective dimension.
    """
    mu = np.maximum(np.asarray(eigvals, dtype=np.float64), 0.0)
    beta = np.asarray(coefficients, dtype=np.float64)
    if beta.shape[0] != mu.shape[0]:
        raise LengthMismatch(f"{beta.shape[0]} coefficients for {mu.shape[0]} eigenvalues")
    if lam < 0.0:
        raise BadLambda(f"lambda must be >= 0, got {lam}")
    if n < 1:
        raise LengthMismatch(f"sample count must be positive, got {n}")
    if lam == 0.0:
        bias_sq = 0.0
        eff_dim = float((mu > 0.0).sum())
    else:
        shrink = lam / (mu + lam)
        bias_sq = float(((shrink**2) * mu * beta**2).sum())
        eff_dim = effective_dimension(mu, lam)
    return bias_sq, noise_var * eff_dim / n
