"""Subset-selection baselines the distilled sets are compared against.

All four return indices of real samples: uniform random, leverage-score
sampling on the averaged kernel, farthest point sampling, and
nearest-to-centroid k-means representatives. fps and k-means see only
pairwise distances, so they take points: the caller hands them the
averaged kernel's eigen-coordinates (cluster.eigen_coordinates), which keep
the gradient rows' distances up to one scale, in as many columns as there
are samples. Downstream fits use the selected rows with the model logits
as targets, the same targets the distilled sets regress. Leverage reads the kernel's eigensystem from
the cluster.KernelSpectra the kernel came from, when it is passed one, so
the distillation and leverage runs of one kernel decompose it once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import KernelSpectra, _sq_dists_to, kernel_eig, kmeans_fit
from .errors import EmptyInput, RankTooLarge, STooLarge, ZeroScores
from .numerics import as_matrix

METHODS = ("random", "leverage", "fps", "kmeans")


@dataclass(frozen=True)
class SelectionResult:
    indices: np.ndarray  # (s,) distinct sample ids
    method: str
    seed: int
    scores: np.ndarray | None = None  # leverage only


def _check_budget(m: int, s: int) -> None:
    if m < 1:
        raise EmptyInput("no samples to select from")
    if s < 1 or s > m:
        raise STooLarge(f"budget s={s} invalid for m={m} samples")


def select_random(m: int, s: int, seed: int) -> SelectionResult:
    """Uniform sample without replacement, sorted ascending."""
    _check_budget(m, s)
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(m, size=s, replace=False))
    return SelectionResult(indices=idx.astype(np.intp), method="random", seed=seed)


def select_leverage(
    kernel_matrix, s: int, r: int, seed: int, spectra: KernelSpectra | None = None
) -> SelectionResult:
    """Sample proportional to rank-r leverage scores, without replacement.

    Scores are squared row norms of the top-r eigenvector block, so they
    sum to r exactly. Indices with zero score are only used to top up when
    fewer than s samples carry positive leverage. The eigensystem comes
    from spectra, the kernel's holder, or is computed here by
    cluster.kernel_eig when None; either refuses one that does not fit.
    """
    k = as_matrix(kernel_matrix, "kernel")
    m = k.shape[0]
    _check_budget(m, s)
    if r < 1 or r > m:
        raise RankTooLarge(f"rank r={r} invalid for m={m}")
    eig = spectra.eig(k) if spectra is not None else kernel_eig(k)
    scores = (eig.vectors[:, :r] ** 2).sum(axis=1)
    total = scores.sum()
    if total <= 0.0:
        raise ZeroScores("all leverage scores vanished")
    rng = np.random.default_rng(seed)
    positive = np.flatnonzero(scores > 0.0)
    if positive.size >= s:
        p = scores[positive] / scores[positive].sum()
        idx = rng.choice(positive, size=s, replace=False, p=p)
    else:
        # degenerate spectrum: keep everything with mass, fill uniformly
        rest = np.setdiff1d(np.arange(m), positive)
        fill = rng.choice(rest, size=s - positive.size, replace=False)
        idx = np.concatenate([positive, fill])
    return SelectionResult(
        indices=np.sort(idx).astype(np.intp), method="leverage", seed=seed, scores=scores
    )


def select_fps(points, s: int, seed: int = 0) -> SelectionResult:
    """Greedy farthest point sampling in Euclidean distance.

    Starts from the largest-norm point and repeatedly adds the point
    farthest from the chosen set; ties break to the lowest index among
    values within 1e-9 times the largest squared norm of the largest, as
    exact duplicates tie only up to roundoff. Each pick costs one matvec:
    distances come from the precomputed squared norms (cluster._sq_dists_to),
    with values within 1e-12 relative of zero, such as exact duplicates of
    a chosen point, cleared to zero. Deterministic, the seed is carried
    only for bookkeeping.
    """
    x = as_matrix(points, "points")
    m = x.shape[0]
    _check_budget(m, s)
    sq = (x * x).sum(axis=1)
    tol = 1e-9 * sq.max()
    chosen = [int(np.flatnonzero(sq >= sq.max() - tol)[0])]
    dist = _sq_dists_to(x, sq, chosen[0])
    dist[chosen[0]] = -np.inf  # never re-pick; later minima keep it there
    while len(chosen) < s:
        nxt = int(np.flatnonzero(dist >= dist.max() - tol)[0])
        chosen.append(nxt)
        np.minimum(dist, _sq_dists_to(x, sq, nxt), out=dist)
        dist[nxt] = -np.inf
    return SelectionResult(
        indices=np.array(chosen, dtype=np.intp), method="fps", seed=seed
    )


def select_kmeans(points, s: int, seed: int) -> SelectionResult:
    """Nearest point to each k-means centroid, duplicates pushed to the
    next-nearest unused point.

    Clustering and the nearest-point picks only see pairwise distances, so
    any isometric image of the points, scaled or not, picks the same set;
    the pipeline passes the averaged kernel's eigen-coordinates. A centroid
    can be equally near two points (a two-member cluster's mean is), so
    among unused points within 1e-9 times the largest squared norm of the
    nearest one the lowest index wins.
    """
    coords = as_matrix(points, "points")
    m = coords.shape[0]
    _check_budget(m, s)
    _, centroids, _ = kmeans_fit(coords, s, seed)
    tol = 1e-9 * (coords * coords).sum(axis=1).max()
    taken: list[int] = []
    used = np.zeros(m, dtype=bool)
    for j in range(s):
        d2 = ((coords - centroids[j]) ** 2).sum(axis=1)
        d2[used] = np.inf
        pick = int(np.flatnonzero(d2 <= d2.min() + tol)[0])
        taken.append(pick)
        used[pick] = True
    return SelectionResult(indices=np.array(taken, dtype=np.intp), method="kmeans", seed=seed)
