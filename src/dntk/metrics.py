"""Evaluation metrics and kernel-approximation identities.

Prediction quality (fidelity to the base model, plain accuracy, MSE),
subspace quality of a compressed gradient set (coverage and reconstruction
error of centered rows), and two structural checks: the inducing-point
kernel identity and the split of projection energy into a spectral tail
plus an alignment gap.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    NonOrthonormalBasis,
    NotAProjector,
    RankMismatch,
    ShapeMismatch,
    ZeroTrace,
)
from .numerics import as_matrix, thin_svd


def _pair(pred, ref) -> tuple[np.ndarray, np.ndarray]:
    p = as_matrix(pred, "predictions")
    r = as_matrix(ref, "reference")
    if p.shape != r.shape:
        raise ShapeMismatch(f"shape mismatch: {p.shape} vs {r.shape}")
    return p, r


def fidelity(pred_logits, model_logits) -> float:
    """Fraction of rows whose argmax matches the base model's argmax.

    argmax ties resolve to the lowest class index on both sides.
    """
    p, r = _pair(pred_logits, model_logits)
    return float((p.argmax(axis=1) == r.argmax(axis=1)).mean())


def accuracy(pred_logits, labels) -> float:
    p = as_matrix(pred_logits, "predictions")
    ids = np.asarray(labels)
    if ids.shape != (p.shape[0],):
        raise ShapeMismatch(f"labels must be ({p.shape[0]},), got {ids.shape}")
    return float((p.argmax(axis=1) == ids).mean())


def mse(pred_logits, model_logits) -> float:
    """Mean squared error over all entries (rows and classes alike)."""
    p, r = _pair(pred_logits, model_logits)
    return float(((p - r) ** 2).mean())


def _center(phi: np.ndarray, center: bool) -> np.ndarray:
    return phi - phi.mean(axis=0, keepdims=True) if center else phi


def _check_basis(v: np.ndarray) -> None:
    if v.shape[1] == 0:
        return  # empty basis spans nothing, trivially orthonormal
    gram = v.T @ v
    if np.abs(gram - np.eye(v.shape[1])).max() > 1e-8:
        raise NonOrthonormalBasis("basis columns are not orthonormal within 1e-8")


def _centered_pair(phi, basis, center: bool) -> tuple[np.ndarray, np.ndarray]:
    p = _center(as_matrix(phi, "phi"), center)
    v = as_matrix(basis, "basis")
    if v.shape[0] != p.shape[1]:
        raise ShapeMismatch(f"basis dim {v.shape[0]} does not match width {p.shape[1]}")
    _check_basis(v)
    return p, v


def subspace_coverage(phi, basis, center: bool = True) -> float:
    """Energy fraction of the (centered) rows captured by the subspace.

    ||Phi V V^T||_F^2 / ||Phi||_F^2 for an orthonormal basis V. Centering
    matches how compressed-set quality is reported; kernels themselves are
    never centered.
    """
    p, v = _centered_pair(phi, basis, center)
    total = float((p**2).sum())
    if total == 0.0:
        raise ZeroTrace("zero gradient matrix has no energy to cover")
    captured = float(((p @ v) ** 2).sum())
    return captured / total


def reconstruction_error(phi, basis, center: bool = True) -> float:
    """Mean squared residual per row after projecting onto the subspace."""
    p, v = _centered_pair(phi, basis, center)
    resid = p - (p @ v) @ v.T
    return float((resid**2).sum() / p.shape[0])


def subspace_scores(phi, basis, center: bool = True) -> tuple[float, float]:
    """(subspace_coverage, reconstruction_error) with one centering, one
    basis check and one projection; each value equals its function's."""
    p, v = _centered_pair(phi, basis, center)
    total = float((p**2).sum())
    if total == 0.0:
        raise ZeroTrace("zero gradient matrix has no energy to cover")
    pv = p @ v
    captured = float((pv**2).sum())
    resid = p - pv @ v.T
    return captured / total, float((resid**2).sum() / p.shape[0])


def orthonormal_rows_basis(rows, eps_rel: float = 1e-10) -> np.ndarray:
    """Orthonormal basis for the span of a set of row vectors."""
    r = as_matrix(rows, "rows")
    svd = thin_svd(r.T)
    if svd.singulars.size == 0 or svd.singulars[0] <= 0.0:
        raise ZeroTrace("rows span nothing")
    keep = svd.singulars > eps_rel * svd.singulars[0]
    return svd.left[:, keep]


# ---------------------------------------------------- kernel approximation

def nystrom_kernel(phi, inducing) -> tuple[np.ndarray, float]:
    """Inducing-point kernel and the residual of its two constructions.

    Builds K_pi = Phi Pi Phi^T with Pi the orthogonal projector onto the
    inducing rows' span, and independently the classic form
    K_xz K_zz^+ K_zx. Returns (K_pi, relative gap between the two).
    """
    p = as_matrix(phi, "phi")
    z = as_matrix(inducing, "inducing")
    if z.shape[1] != p.shape[1]:
        raise ShapeMismatch(f"inducing width {z.shape[1]} does not match {p.shape[1]}")
    if float((z**2).sum()) == 0.0:
        raise ZeroTrace("inducing rows are all zero")
    pi = z.T @ np.linalg.pinv(z @ z.T, rcond=1e-12) @ z
    k_pi = p @ pi @ p.T
    k_pi = 0.5 * (k_pi + k_pi.T)

    k_xz = p @ z.T
    k_zz = z @ z.T
    classic = k_xz @ np.linalg.pinv(k_zz, rcond=1e-12) @ k_xz.T
    denom = max(np.linalg.norm(k_pi), 1e-300)
    return k_pi, float(np.linalg.norm(k_pi - classic) / denom)


def _check_projector(pi: np.ndarray) -> None:
    if pi.shape[0] != pi.shape[1]:
        raise NotAProjector(f"projector must be square, got {pi.shape}")
    scale = max(np.abs(pi).max(), 1.0)
    if np.abs(pi @ pi - pi).max() > 1e-9 * scale:
        raise NotAProjector("matrix is not idempotent within 1e-9")
    if np.abs(pi - pi.T).max() > 1e-9 * scale:
        raise NotAProjector("projector must be symmetric (orthogonal projection)")


def kernel_error_bound_check(phi, pi) -> tuple[float, float, bool]:
    """Verify ||K - K_pi||_F <= ||Phi||_F ||Phi (I - Pi)||_F.

    Returns (lhs, rhs, holds). The bound is algebraic, so a violation
    beyond roundoff indicates a broken projector or kernel assembly.
    """
    p = as_matrix(phi, "phi")
    proj = as_matrix(pi, "pi")
    if proj.shape[0] != p.shape[1]:
        raise ShapeMismatch(f"projector dim {proj.shape[0]} vs width {p.shape[1]}")
    _check_projector(proj)
    full = p @ p.T
    approx = p @ proj @ p.T
    lhs = float(np.linalg.norm(full - approx))
    rhs = float(np.linalg.norm(p) * np.linalg.norm(p - p @ proj))
    return lhs, rhs, lhs <= rhs + 1e-9 * max(rhs, 1.0)


def energy_gap_decomposition(phi, pi) -> tuple[float, float, float]:
    """Split projection energy loss into spectral tail plus alignment gap.

    ||Phi (I - Pi)||_F^2 = sum_{j>r} sigma_j^2 + gap, with r the projector
    rank and gap = tr(Phi^T Phi Pi*) - tr(Phi^T Phi Pi) measured against
    the top-r right-singular projector Pi*. Returns (loss, tail, gap); the
    gap is nonnegative up to roundoff and zero when Pi is spectrally
    optimal.
    """
    p = as_matrix(phi, "phi")
    proj = as_matrix(pi, "pi")
    if proj.shape[0] != p.shape[1]:
        raise ShapeMismatch(f"projector dim {proj.shape[0]} vs width {p.shape[1]}")
    _check_projector(proj)
    trace_pi = float(np.trace(proj))
    r = int(round(trace_pi))
    if abs(trace_pi - r) > 1e-6 or r < 0 or r > proj.shape[0]:
        raise RankMismatch(f"projector trace {trace_pi:.6f} is not an integer rank")

    svd = thin_svd(p)
    sq = svd.singulars**2
    tail = float(sq[r:].sum())
    a = p.T @ p
    star = svd.right[:, :r]
    gap = float(np.trace(star.T @ a @ star) - np.trace(a @ proj))
    loss = float(((p - p @ proj) ** 2).sum())
    return loss, tail, gap
