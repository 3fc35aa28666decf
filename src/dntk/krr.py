"""Kernel ridge regression on per-class gradient kernels.

Gradient sets are (C, s, D) arrays, each class's rows one contiguous block.
Fitting forms each class kernel with kernel.scaled_gram, as the kernel stack
does, and goes through one eigendecomposition per class kernel; the model
keeps those spectra, which the report's coverage and conditioning columns
read back. The direct-solve routine in the numerics module is the
independent oracle this path is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadLambda, ScaleMismatch, ShapeMismatch, SingularSystem
from .kernel import scale_factor, scaled_gram
from .numerics import COND_LIMIT, sym_eig
from .sketch import require_memory


@dataclass(frozen=True)
class KrrModel:
    basis: np.ndarray  # (C, s, D) gradient rows per class
    alpha: np.ndarray  # (s, C) dual coefficients per class
    lambda_reg: float
    scale_kind: str
    eig_values: np.ndarray  # (C, s) cached per-class spectra, descending
    eig_vectors: np.ndarray  # (C, s, s)

    @property
    def size(self) -> int:
        return int(self.basis.shape[1])

    @property
    def width(self) -> int:
        return int(self.basis.shape[2])

    @property
    def class_count(self) -> int:
        return int(self.basis.shape[0])


def _rows(basis, name: str) -> np.ndarray:
    """basis as a float64 (C, s, D) array."""
    b = np.asarray(basis, dtype=np.float64)
    if b.ndim != 3:
        raise ShapeMismatch(f"{name} must be (C, rows, D), got shape {b.shape}")
    return b


def _solve_alpha(values, vectors, y, lambda_reg):
    """alpha = U (S + lambda I)^{-1} U^T y on the cached spectrum."""
    if lambda_reg == 0.0 and not (
        values.min() > 0.0 and values.max() / values.min() <= COND_LIMIT
    ):
        raise SingularSystem("lambda_reg = 0 needs a well-conditioned kernel")
    return vectors @ ((vectors.T @ y) / (values + lambda_reg)[:, None])


def fit(
    basis,
    targets,
    lambda_reg: float = 1e-4,
    scale_kind: str = "inv_k",
) -> KrrModel:
    """Fit one ridge regressor per class on that class's gradient kernel.

    basis is (C, s, D) rows and targets (s, C). With lambda_reg = 0 every
    eigenvalue must be positive and the spectrum well-conditioned or the
    system is reported singular. (C, s, s) eigenvectors larger than the
    memory left are refused with InsufficientMemory before they are made.
    """
    b = _rows(basis, "basis")
    c, s, d = b.shape
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != (s, c):
        raise ShapeMismatch(f"targets must be ({s}, {c}), got {y.shape}")
    if lambda_reg < 0.0:
        raise BadLambda(f"lambda_reg must be >= 0, got {lambda_reg}")
    factor = scale_factor(scale_kind, d)
    require_memory(8 * c * s * s, f"{c} x {s} x {s} kernel eigenvectors")
    eig_values = np.empty((c, s))
    eig_vectors = np.empty((c, s, s))
    alpha = np.empty((s, c))
    gram = np.empty((s, s))
    for ci in range(c):
        scaled_gram(b[ci], factor, gram)
        eig = sym_eig(gram)
        eig_values[ci] = eig.values
        eig_vectors[ci] = eig.vectors
        alpha[:, ci] = _solve_alpha(
            eig.values, eig.vectors, y[:, ci : ci + 1], lambda_reg
        ).ravel()
    return KrrModel(
        basis=b,
        alpha=alpha,
        lambda_reg=float(lambda_reg),
        scale_kind=scale_kind,
        eig_values=eig_values,
        eig_vectors=eig_vectors,
    )


def predict(model: KrrModel, test_basis) -> np.ndarray:
    """Predicted logits at test gradient rows, shape (n_test, C).

    test_basis is a (C, t, D) array. Prediction runs in primal form: per
    class the dual coefficients fold into one weight vector
    w_c = factor * B_c^T alpha_c of width D, at the model's scale, and the
    logits are T_c w_c. That equals the cross-kernel form
    (factor * T_c B_c^T) alpha_c without building the (t, s) cross kernel.
    """
    t = _rows(test_basis, "test basis")
    if t.shape[0] != model.class_count:
        raise ShapeMismatch(
            f"test basis must be ({model.class_count}, t, D), got {t.shape}"
        )
    if t.shape[2] != model.width:
        raise ScaleMismatch(
            f"test rows have width {t.shape[2]}, model was fit at width "
            f"{model.width}; mixing raw and sketched rows is not allowed"
        )
    factor = scale_factor(model.scale_kind, model.width)
    out = np.empty((t.shape[1], model.class_count))
    for ci in range(model.class_count):
        weights = factor * (model.basis[ci].T @ model.alpha[:, ci])
        out[:, ci] = t[ci] @ weights
    return out

