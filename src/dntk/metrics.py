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
from .numerics import as_matrix, rank_tolerance, thin_svd


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


def _gram_error(gram: np.ndarray) -> float:
    """max |V^T V - I| from V^T V."""
    return float(np.abs(gram - np.eye(gram.shape[0])).max()) if gram.size else 0.0


def _check_basis(v: np.ndarray, gram: np.ndarray | None = None) -> None:
    """Raise unless V^T V (given, or formed here) is the identity within 1e-8."""
    if gram is None:
        gram = v.T @ v
    if _gram_error(gram) > 1e-8:
        raise NonOrthonormalBasis("basis columns are not orthonormal within 1e-8")


def _energies(p: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """(||P||_F^2, ||P V||_F^2) for rows P and an orthonormal basis V."""
    total = float((p**2).sum())
    if total == 0.0:
        raise ZeroTrace("zero gradient matrix has no energy to cover")
    return total, float(((p @ v) ** 2).sum())


def subspace_scores(phi, basis, center: bool = True) -> tuple[float, float]:
    """(coverage, reconstruction error) of the (centered) rows by a subspace.

    Coverage is the captured energy fraction ||Phi V V^T||_F^2 / ||Phi||_F^2
    for an orthonormal basis V; the reconstruction error is the mean squared
    residual per row after projecting onto the subspace. Centering matches
    how compressed-set quality is reported; kernels themselves are never
    centered.
    """
    p = _center(as_matrix(phi, "phi"), center)
    v = as_matrix(basis, "basis")
    if v.shape[0] != p.shape[1]:
        raise ShapeMismatch(f"basis dim {v.shape[0]} does not match width {p.shape[1]}")
    _check_basis(v)
    total, captured = _energies(p, v)
    resid = p - (p @ v) @ v.T
    return captured / total, float((resid**2).sum() / p.shape[0])


# a basis further than this from V^T V = I gets one CholeskyQR step
_REORTHO_SLACK = 1e-10


def eig_rows_basis(rows, eig_values, eig_vectors, factor: float) -> np.ndarray:
    """Orthonormal basis for the span of the rows, from their Gram's eigenpairs.

    With factor * rows rows^T = U diag(lam) U^T (as krr.fit caches it per
    class), V = rows^T U_+ diag(sqrt(factor / lam_+)) holds the left singular
    vectors of rows^T, where + keeps the eigenvalues above
    numerics.rank_tolerance: the directions the report's condition column
    counts as positive. V is orthonormal only to about eps * lam_max / lam_+,
    so when V^T V is further than 1e-10 from the identity one CholeskyQR
    step re-orthonormalizes it; eigenpairs that do not belong to the rows
    (say, all-zero vectors) can leave a Gram that is not positive definite,
    which raises NonOrthonormalBasis. On the common path V^T V is formed once
    and also serves the 1e-8 orthonormality check.
    """
    r = as_matrix(rows, "rows")
    lam = np.asarray(eig_values, dtype=np.float64)
    u = np.asarray(eig_vectors, dtype=np.float64)
    if lam.shape != (r.shape[0],) or u.shape != (r.shape[0], r.shape[0]):
        raise ShapeMismatch(
            f"eigenpairs {lam.shape}, {u.shape} do not match {r.shape[0]} rows"
        )
    keep = lam > rank_tolerance(lam)
    if not keep.any():
        raise ZeroTrace("rows span nothing")
    v = r.T @ (u[:, keep] * np.sqrt(factor / lam[keep]))
    gram = v.T @ v
    if _gram_error(gram) > _REORTHO_SLACK:
        # V^T V = L L^T and V L^{-T} spans the same space, orthonormal to
        # about eps * cond(V)^2 (CholeskyQR)
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError as exc:
            raise NonOrthonormalBasis(
                "eigenpairs give a basis whose Gram is not positive definite"
            ) from exc
        v = np.linalg.solve(chol, v.T).T
        gram = v.T @ v
    _check_basis(v, gram)
    return v


# span_scores reads a residual energy below this fraction of the total as 0
_RESID_FLOOR = 1e-12


def span_scores(phi, rows, eig_values, eig_vectors, factor: float) -> tuple[float, float]:
    """subspace_scores of the centered phi against eig_rows_basis(rows, ...),
    whose check of V^T V stands in for subspace_scores' own.

    No residual matrix is formed: for orthonormal V the residual energy is
    ||P||_F^2 - ||P V||_F^2, so recon_error is that difference over the row
    count. A difference within _RESID_FLOOR of the total energy is the
    roundoff of the two sums, not a residual, and reads as exactly zero, as
    on a row set that spans P.
    """
    p = _center(as_matrix(phi, "phi"), True)
    v = eig_rows_basis(rows, eig_values, eig_vectors, factor)
    if v.shape[0] != p.shape[1]:
        raise ShapeMismatch(f"basis dim {v.shape[0]} does not match width {p.shape[1]}")
    total, captured = _energies(p, v)
    resid = total - captured
    if resid <= _RESID_FLOOR * total:
        resid = 0.0
    return captured / total, resid / p.shape[0]


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
