"""Per-class gradient kernels and their spectral diagnostics.

A class kernel is the Gram matrix of one class's gradient rows, optionally
scaled by 1/width so eigenvalues stay comparable across sketch sizes.
scaled_gram, the one routine that forms it, serves build_stack (the staged
kernel statistics, and the averaged kernel clustering, distillation and the
leverage baseline read) and krr.fit alike. kept_rank is the one rule for
how many eigenmodes a truncation keeps. It, spectrum_conditioning and
effective_dimension read a spectrum alone: the kernel-stats stage fills
kernel_stats.csv's columns from numerics.sym_eigvals through them, and
spectrum_conditioning fills the report's conditioning columns.
"""

from __future__ import annotations

import numpy as np

from .errors import BadEps, BadLambda, ScaleMismatch, ZeroTrace
from .numerics import rank_tolerance, sym_eigvals
from .sketch import require_memory
from .tangent import GradientFeatures

SCALE_CHOICES = ("none", "inv_k")
# eigenvalues below this fraction of the trace are treated as pure noise
EIG_FLOOR_REL = 1e-12


def scale_factor(scale_kind: str, width: int) -> float:
    if scale_kind not in SCALE_CHOICES:
        raise ScaleMismatch(f"scale_kind must be one of {SCALE_CHOICES}, got {scale_kind!r}")
    return 1.0 / width if scale_kind == "inv_k" else 1.0


def build_stack(
    feats: GradientFeatures, scale_kind: str = "inv_k", average: bool = False
) -> np.ndarray:
    """(C, n, n): one Gram matrix per class, all at the same scale; with
    average, their mean, (n, n), with no stack behind it.

    The mean is summed as average_kernel sums a stack, class by class in
    class order, and divided by C once, so it has average_kernel's bits.
    Each class kernel after the first is formed in one n x n buffer and
    added to the sum, so two n x n arrays are held, not C + 1. An array
    larger than the memory left is refused with InsufficientMemory before
    it is made.
    """
    scale = scale_factor(scale_kind, feats.width)
    c, n = feats.class_count, feats.size
    if not average:
        require_memory(8 * c * n * n, f"a {c} x {n} x {n} kernel stack")
        stack = np.empty((c, n, n))
        for ci in range(c):
            scaled_gram(feats.per_class[ci], scale, stack[ci])
        return stack
    require_memory(2 * 8 * n * n, f"a {n} x {n} averaged kernel and one class kernel")
    total, gram = np.empty((n, n)), np.empty((n, n))
    scaled_gram(feats.per_class[0], scale, total)
    for ci in range(1, c):
        scaled_gram(feats.per_class[ci], scale, gram)
        total += gram
    total /= c
    return total


def scaled_gram(phi: np.ndarray, scale: float, out: np.ndarray) -> None:
    """out <- (K + K^T) / 2 for K = scale * phi phi^T, in place.

    numpy hands the product of unit-stride rows at a forward row stride
    (every caller's layout) with their own transpose to one syrk call and
    mirrors its triangle, so K is exactly symmetric and is left as it is: no
    symmetrization pass and no second n x n matrix. Other layouts can take a
    general product and are symmetrized through one n x n temporary.
    """
    np.matmul(phi, phi.T, out=out)
    out *= scale
    if phi.strides[-1] != phi.itemsize or phi.strides[0] < phi.itemsize * phi.shape[-1]:
        out += out.T  # numpy buffers the overlapping operand
        out *= 0.5


def average_kernel(stack: np.ndarray) -> np.ndarray:
    """Unweighted mean of a (C, n, n) stack of per-class kernels: the layers
    summed in class order, then divided by C.

    That is stack.mean(axis=0)'s order at n > 1, and the order
    build_stack(average=True) sums in at every n. Each layer from
    scaled_gram is exactly symmetric, so the mean is too.
    """
    total = stack[0].copy()
    for layer in stack[1:]:
        total += layer
    total /= stack.shape[0]
    return total


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


def kept_rank(eigvals, eps: float) -> int:
    """The rank distill and kernel-stats keep: truncation_rank at eps, capped
    at the count of eigenvalues above the noise floor EIG_FLOOR_REL * trace,
    so degenerate near-zero modes never qualify.

    Negative eigenvalues are clamped to zero first, for the trace as well.
    """
    vals = np.maximum(np.asarray(eigvals, dtype=np.float64), 0.0)
    above = int(np.sum(vals > EIG_FLOOR_REL * vals.sum()))
    return min(truncation_rank(vals, eps), above)


def spectrum_conditioning(eigvals) -> tuple[float, float]:
    """(condition number, minimum eigenvalue) of K from K's spectrum.

    The condition number is the largest eigenvalue over the smallest
    positive one, inf when none is positive. An eigenvalue counts as
    positive only above len(vals) * eps * max |vals| (numpy's matrix_rank
    tolerance), so on a rank-deficient K the roundoff eigenvalues of its null
    space do not set the ratio.
    """
    vals = np.asarray(eigvals, dtype=np.float64)
    positive = vals[vals > rank_tolerance(vals)]
    condition = float(vals.max() / positive.min()) if positive.size else float("inf")
    return condition, float(vals.min())


def conditioning(kernel_matrix) -> tuple[float, float]:
    """(condition number, minimum eigenvalue) of K, from its eigenvalues alone."""
    return spectrum_conditioning(sym_eigvals(kernel_matrix))


def effective_dimension(eigvals, lam: float) -> float:
    """sum_j mu_j / (mu_j + lam) over the clamped spectrum."""
    if lam <= 0.0:
        raise BadLambda(f"lambda must be > 0, got {lam}")
    mu = np.maximum(np.asarray(eigvals, dtype=np.float64), 0.0)
    return float((mu / (mu + lam)).sum())
