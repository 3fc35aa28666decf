"""Numerical checks for the subspace-restricted descent guarantees.

Three facts get verified on explicit instances: the closed-form minimizer
of the smooth surrogate restricted to a subspace, the guaranteed loss
decrease that minimizer achieves on an L-smooth quadratic, and the
optimality of the top eigenspace of the gradient second moment for
minimizing expected projection residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NonOrthonormalBasis,
    NotSmooth,
    PreconditionFailed,
    RankTooLarge,
    ShapeMismatch,
)
from .numerics import as_matrix, sym_eig


@dataclass(frozen=True)
class TheoryProbe:
    """A bundle of task gradients plus the subspace under test."""

    dim: int
    task_gradients: np.ndarray  # (T, P)
    smoothness: float  # L
    step: float  # eta
    basis: np.ndarray  # (P, r) orthonormal columns

    @property
    def rank(self) -> int:
        return int(self.basis.shape[1])


def make_probe(task_gradients, smoothness: float, step: float, basis) -> TheoryProbe:
    g = as_matrix(task_gradients, "task_gradients")
    v = as_matrix(basis, "basis")
    if v.shape[0] != g.shape[1]:
        raise ShapeMismatch(f"basis dim {v.shape[0]} vs gradient dim {g.shape[1]}")
    if np.abs(v.T @ v - np.eye(v.shape[1])).max() > 1e-8:
        raise NonOrthonormalBasis("basis columns must be orthonormal")
    if smoothness <= 0.0 or step <= 0.0:
        raise PreconditionFailed("smoothness and step must be positive")
    return TheoryProbe(
        dim=g.shape[1], task_gradients=g, smoothness=smoothness, step=step, basis=v
    )


def surrogate(g: np.ndarray, delta: np.ndarray, smoothness: float) -> float:
    """M(delta) = <g, delta> + (L/2) ||delta||^2."""
    return float(g @ delta + 0.5 * smoothness * float(delta @ delta))


def restricted_minimizer(probe: TheoryProbe, g: np.ndarray) -> np.ndarray:
    """argmin of the surrogate over the probe's subspace: -(1/L) Pi g."""
    v = probe.basis
    return -(v @ (v.T @ g)) / probe.smoothness


def quadratic_minimizer_check(probe: TheoryProbe, trials: int, seed: int) -> float:
    """Maximum surrogate improvement found by random in-subspace moves.

    Perturbs the closed-form minimizer with random subspace directions at
    several magnitudes; a positive return value would mean some move beats
    it. Convexity makes the exact answer <= 0, so anything above roundoff
    is a bug.
    """
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for g in probe.task_gradients:
        star = restricted_minimizer(probe, g)
        base = surrogate(g, star, probe.smoothness)
        scale = max(np.linalg.norm(star), 1.0)
        for _ in range(trials):
            direction = probe.basis @ rng.normal(size=probe.rank)
            magnitude = scale * 10.0 ** rng.uniform(-6, 0)
            cand = star + magnitude * direction
            worst = max(worst, base - surrogate(g, cand, probe.smoothness))
    return float(worst)


def decrease_bound_check(
    probe: TheoryProbe, quad_a, quad_b
) -> tuple[float, float, bool]:
    """Achieved vs guaranteed decrease on an explicit L-smooth quadratic.

    The loss is (1/2) theta^T A theta + b^T theta evaluated from theta = 0,
    so the gradient there is b. Returns (achieved, bound, holds) where
    bound = (||g||^2 - ||(I - Pi) g||^2) / (2 L). A has to satisfy
    lambda_max(A) <= L or the smoothness premise is broken.
    """
    a = as_matrix(quad_a, "quad_a")
    b = np.asarray(quad_b, dtype=np.float64)
    if a.shape != (probe.dim, probe.dim) or b.shape != (probe.dim,):
        raise ShapeMismatch("quadratic pieces must match the probe dimension")
    top = sym_eig(a).values[0]
    if top > probe.smoothness * (1.0 + 1e-12):
        raise NotSmooth(
            f"lambda_max(A) = {top:.6g} exceeds smoothness L = {probe.smoothness:.6g}"
        )
    g = b
    star = restricted_minimizer(probe, g)
    achieved = -(0.5 * float(star @ (a @ star)) + float(b @ star))
    residual = g - probe.basis @ (probe.basis.T @ g)
    bound = (float(g @ g) - float(residual @ residual)) / (2.0 * probe.smoothness)
    return achieved, bound, achieved >= bound - 1e-10 * max(abs(bound), 1.0)


# ------------------------------------------------- second-moment optimality

def projection_residual(second_moment, basis) -> float:
    """Expected squared residual tr(G) - tr(Pi G) for the subspace."""
    g = as_matrix(second_moment, "second_moment")
    v = as_matrix(basis, "basis")
    if v.shape[0] != g.shape[0]:
        raise ShapeMismatch(f"basis dim {v.shape[0]} vs moment dim {g.shape[0]}")
    return float(np.trace(g) - np.trace(v.T @ g @ v))


def pca_optimality_bruteforce(
    second_moment, r: int, trials: int, seed: int
) -> tuple[float, float]:
    """Top-r eigenspace residual vs the best random subspace found.

    Samples `trials` Haar-random r-dimensional subspaces and returns
    (eigen residual, smallest margin random_residual - eigen_residual). A
    margin below roughly -1e-10 would falsify eigenspace optimality.
    """
    g = as_matrix(second_moment, "second_moment")
    p = g.shape[0]
    if not (1 <= r <= p):
        raise RankTooLarge(f"rank r={r} invalid for dimension {p}")
    eig = sym_eig(g)
    best = float(eig.values[r:].sum())  # tail of the spectrum
    rng = np.random.default_rng(seed)
    margin = np.inf
    for _ in range(trials):
        q, _ = np.linalg.qr(rng.normal(size=(p, r)))
        margin = min(margin, projection_residual(g, q) - best)
    return best, float(margin)


def residual_two_ways(task_gradients, basis) -> tuple[float, float]:
    """Sample-mean residual vs the trace identity on the empirical moment.

    Both numbers estimate E ||(I - Pi) g||^2; they must agree to roundoff
    because the second is an algebraic rewrite of the first.
    """
    g = as_matrix(task_gradients, "task_gradients")
    v = as_matrix(basis, "basis")
    if v.shape[0] != g.shape[1]:
        raise ShapeMismatch(f"basis dim {v.shape[0]} vs gradient dim {g.shape[1]}")
    resid = g - (g @ v) @ v.T
    sample_mean = float((resid**2).sum() / g.shape[0])
    moment = (g.T @ g) / g.shape[0]
    return sample_mean, projection_residual(moment, v)
