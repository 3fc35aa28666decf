"""Dense linear-algebra primitives used throughout the package.

Symmetric eigendecomposition, thin SVD, rank-revealing QR filtering and a
direct ridge solve. These routines are deliberately boring: they wrap
LAPACK through numpy (the QR filter adds a short pivoting loop on top),
pin down deterministic ordering and sign conventions, and validate their
inputs loudly. The direct solve doubles as the ground-truth oracle for the
eigendecomposition-based regression path, so the two must never share
code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadEps,
    BadLambda,
    DimMismatch,
    EmptyInput,
    NonFinite,
    NotSquare,
    NotSymmetric,
    ShapeMismatch,
    SingularSystem,
)

# relative symmetry slack for inputs that accumulated roundoff in products
SYMMETRY_RTOL = 1e-9
# entries below this count as zero when fixing eigenvector signs
_SIGN_EPS = 1e-12

COND_LIMIT = 1e12


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues in descending order with column-aligned eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD, a = left @ diag(singulars) @ right.T, singulars descending."""

    left: np.ndarray
    singulars: np.ndarray
    right: np.ndarray


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-d array."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise DimMismatch(f"{name} must be 2-d, got ndim={out.ndim}")
    if not np.all(np.isfinite(out)):
        raise NonFinite(f"{name} contains nan or inf")
    return out


def _negative_leads(vectors: np.ndarray) -> np.ndarray:
    """Mask of the columns whose first entry above _SIGN_EPS in magnitude is negative."""
    big = np.abs(vectors) > _SIGN_EPS
    if big.shape[0] == 0:
        return np.zeros(big.shape[1], dtype=bool)
    first = big.argmax(axis=0)  # 0 for a column with no such entry
    cols = np.arange(big.shape[1])
    return big[first, cols] & (vectors[first, cols] < 0.0)


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip column signs so the first nonzero entry of each column is positive."""
    out = np.array(vectors, copy=True)
    flip = _negative_leads(out)
    out[:, flip] = -out[:, flip]
    return out


def _check_square_symmetric(s: np.ndarray, name: str) -> np.ndarray:
    if s.shape[0] != s.shape[1]:
        raise NotSquare(f"{name} must be square, got shape {s.shape}")
    scale = np.abs(s).max() if s.size else 0.0
    if scale > 0.0 and np.abs(s - s.T).max() > SYMMETRY_RTOL * scale:
        raise NotSymmetric(f"{name} is not symmetric within rtol {SYMMETRY_RTOL}")
    # kernel products accumulate ~1e-13 asymmetry; fold it away before LAPACK
    return 0.5 * (s + s.T)


def sym_eig(s_matrix) -> EigenSystem:
    """Full eigendecomposition of a symmetric matrix.

    Returns eigenvalues sorted descending and orthonormal eigenvectors with
    a deterministic sign (first nonzero entry positive), so repeated calls
    on equal inputs are bitwise identical.
    """
    w, u = np.linalg.eigh(_symmetric_input(s_matrix))
    return EigenSystem(values=w[::-1].copy(), vectors=fix_signs(u[:, ::-1]))


def sym_eigvals(s_matrix) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted descending.

    The same checks as sym_eig, but LAPACK computes no eigenvectors, which
    is several times cheaper for a caller that reads the spectrum alone.
    """
    return np.linalg.eigvalsh(_symmetric_input(s_matrix))[::-1].copy()


def _symmetric_input(s_matrix) -> np.ndarray:
    """A finite, nonempty, square and symmetric float64 matrix, symmetrized."""
    s = as_matrix(s_matrix, "s_matrix")
    if s.size == 0:
        raise EmptyInput("cannot decompose an empty matrix")
    return _check_square_symmetric(s, "s_matrix")


def rank_tolerance(values) -> float:
    """numpy's matrix_rank tolerance for a spectrum: len * eps * max |value|.

    Eigenvalues at or below it are indistinguishable from the roundoff of a
    null space.
    """
    vals = np.asarray(values, dtype=np.float64)
    return vals.size * np.finfo(np.float64).eps * np.abs(vals).max()


def thin_svd(a_matrix) -> SvdResult:
    """Thin SVD with descending singular values and deterministic signs.

    Signs are keyed on the left factor; the matching right column is flipped
    along with it so the product is unchanged.
    """
    a = as_matrix(a_matrix, "a_matrix")
    if a.size == 0:
        raise EmptyInput("cannot decompose an empty matrix")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    v = vh.T
    flip = _negative_leads(u)
    u[:, flip] = -u[:, flip]
    v[:, flip] = -v[:, flip]
    return SvdResult(left=u, singulars=s, right=v)


def qr_redundancy_filter(columns, eps_rel: float = 1e-6) -> np.ndarray:
    """Indices of a maximal well-conditioned subset of columns.

    Runs column-pivoted QR and keeps the pivots whose |R_ii| exceeds
    eps_rel times the largest diagonal magnitude, |R_11|, which is the
    largest column norm. The kept index set is mapped back to the original
    column order and sorted ascending.

    The pivoting works on the triangular factor R of an unpivoted
    Householder QR of the columns: their Q is orthonormal, so R has the same
    column norms and the same pivoted factor. Every pivoted |R_ii| is at
    least the smallest singular value, so when there are no more columns
    than rows and sigma_min(R) clears the threshold, every column is kept
    and no pivoting runs. Otherwise Businger-Golub pivoting takes the
    largest remaining column norm and stops at the first pivot at or below
    the threshold. Norms within max(m, n) * eps * |R_11| of the largest
    (numpy's matrix_rank tolerance) count as tied and the lowest original
    column index among them wins, so which copy of duplicate columns is
    kept does not hang on roundoff.
    """
    a = as_matrix(columns, "columns")
    if a.shape[1] == 0 or a.shape[0] == 0:
        raise EmptyInput("need at least one column to filter")
    if not (0.0 < eps_rel < 1.0):
        raise BadEps(f"eps_rel must lie in (0, 1), got {eps_rel}")
    r = np.linalg.qr(a, mode="r")
    top = np.linalg.norm(r, axis=0).max()
    if top <= 0.0:
        return np.empty(0, dtype=np.intp)
    cut = eps_rel * top
    if r.shape[0] >= r.shape[1] and np.linalg.svd(r, compute_uv=False)[-1] > cut:
        return np.arange(r.shape[1], dtype=np.intp)
    tie = max(a.shape) * np.finfo(np.float64).eps * top
    return np.sort(_pivots_above(r, cut, tie))


def _pivots_above(r: np.ndarray, cut: float, tie: float) -> np.ndarray:
    """Column-pivoted Householder QR of r; the pivots taken while |R_kk| > cut."""
    w = r.copy()
    perm = np.arange(w.shape[1], dtype=np.intp)
    steps = min(w.shape)
    for k in range(steps):
        norms = np.linalg.norm(w[k:, k:], axis=0)
        best = norms.max()
        if best <= cut:
            return perm[:k]
        tied = np.flatnonzero(norms >= best - tie)
        j = k + int(tied[np.argmin(perm[k + tied])])  # lowest original index
        w[:, [k, j]] = w[:, [j, k]]
        perm[[k, j]] = perm[[j, k]]
        # reflect column k onto e_k and apply the reflector to the trailing columns
        v = w[k:, k].copy()
        v[0] += np.copysign(norms[j - k], v[0])
        v /= np.linalg.norm(v)
        w[k:, k + 1:] -= 2.0 * np.outer(v, v @ w[k:, k + 1:])
    return perm[:steps]


def ridge_solve_direct(kernel, targets, lambda_reg: float) -> np.ndarray:
    """Solve (K + lambda_reg * I) alpha = Y by direct factorization.

    One step of iterative refinement is applied so the returned solution
    satisfies ||(K + lambda I) alpha - Y|| <= 1e-8 ||Y|| on any reasonably
    conditioned system. With lambda_reg = 0 the system must be invertible;
    condition numbers beyond 1e12 raise SingularSystem.
    """
    k = as_matrix(kernel, "kernel")
    if k.size == 0:
        raise EmptyInput("empty kernel")
    k = _check_square_symmetric(k, "kernel")
    y = np.asarray(targets, dtype=np.float64)
    if not np.all(np.isfinite(y)):
        raise NonFinite("targets contain nan or inf")
    if y.shape[0] != k.shape[0]:
        raise ShapeMismatch(
            f"targets have {y.shape[0]} rows, kernel is {k.shape[0]} x {k.shape[0]}"
        )
    if lambda_reg < 0.0:
        raise BadLambda(f"lambda_reg must be >= 0, got {lambda_reg}")

    system = k + lambda_reg * np.eye(k.shape[0])
    if lambda_reg == 0.0:
        cond = np.linalg.cond(system)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise SingularSystem(f"condition {cond:.3e} exceeds {COND_LIMIT:.0e}")
    try:
        alpha = np.linalg.solve(system, y)
        alpha = alpha + np.linalg.solve(system, y - system @ alpha)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc

    residual = np.linalg.norm(system @ alpha - y)
    if residual > 1e-8 * max(np.linalg.norm(y), 1e-300):
        raise SingularSystem(
            f"direct solve residual {residual:.3e} too large; system is singular"
        )
    return alpha
