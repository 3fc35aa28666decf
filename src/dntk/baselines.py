"""Subset-selection baselines the distilled sets are compared against.

All four return indices of real samples: uniform random, leverage-score
sampling on the averaged kernel, farthest point sampling on the flattened
gradient rows, and nearest-to-centroid k-means representatives. Downstream
fits use the selected rows with the model logits as targets, the same
targets the distilled sets regress.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import kmeans_fit
from .errors import EmptyInput, RankTooLarge, STooLarge, ZeroScores
from .numerics import as_matrix, sym_eig

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


def select_leverage(kernel_matrix, s: int, r: int, seed: int) -> SelectionResult:
    """Sample proportional to rank-r leverage scores, without replacement.

    Scores are squared row norms of the top-r eigenvector block, so they
    sum to r exactly. Indices with zero score are only used to top up when
    fewer than s samples carry positive leverage.
    """
    k = as_matrix(kernel_matrix, "kernel")
    m = k.shape[0]
    _check_budget(m, s)
    if r < 1 or r > m:
        raise RankTooLarge(f"rank r={r} invalid for m={m}")
    eig = sym_eig(k)
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


def select_fps(rows, s: int, seed: int = 0) -> SelectionResult:
    """Greedy farthest point sampling in Euclidean distance.

    Starts from the largest-norm row and repeatedly adds the row farthest
    from the chosen set; all ties break to the lowest index. Deterministic,
    the seed is carried only for bookkeeping.
    """
    x = as_matrix(rows, "rows")
    m = x.shape[0]
    _check_budget(m, s)
    chosen = [int(np.argmax((x**2).sum(axis=1)))]
    dist = ((x - x[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < s:
        dist[chosen] = -1.0  # never re-pick
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, ((x - x[nxt]) ** 2).sum(axis=1))
    return SelectionResult(
        indices=np.array(chosen, dtype=np.intp), method="fps", seed=seed
    )


def select_kmeans(rows, s: int, seed: int) -> SelectionResult:
    """Nearest real row to each k-means centroid, duplicates pushed to the
    next-nearest unused row.

    Clustering and the nearest-row picks only see pairwise distances, so
    they run on the isometric coordinates R^T of a QR factorization
    x^T = QR, which are at most min(m, D) wide. A centroid can be equally
    near two rows (a two-member cluster's mean is), so among unused rows
    within 1e-9 times the largest squared row norm of the nearest one the
    lowest index wins.
    """
    x = as_matrix(rows, "rows")
    m = x.shape[0]
    _check_budget(m, s)
    coords = np.linalg.qr(x.T, mode="r").T
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


def flatten_rows(per_class: np.ndarray) -> np.ndarray:
    """Concatenate class slices per sample: (C, m, D) -> (m, C * D)."""
    c, m, d = per_class.shape
    return per_class.transpose(1, 0, 2).reshape(m, c * d)
