"""Spectral clustering of the class-averaged kernel.

Affinity is the clamped kernel, the Laplacian is the symmetric normalized
one, and the embedding rows are clustered with a fully seeded k-means
(k-means++ seeding, fixed restart and iteration budget, lowest-index tie
breaks) so a partition is reproducible bit-for-bit from (kernel, H, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedDegenerate,
    EmptyInput,
    HTooLarge,
    IndexOutOfRange,
    InputError,
)
from .numerics import as_matrix, sym_eig

KMEANS_RESTARTS = 20
KMEANS_ITERS = 100
# relative size of the norm-expansion roundoff cleared in _sq_dists_to
_ROUNDOFF = 1e-12


@dataclass(frozen=True)
class ClusterPartition:
    assignments: np.ndarray  # (n,) cluster id per sample
    index_sets: tuple  # per cluster, sorted sample indices
    cluster_count: int

    @property
    def size(self) -> int:
        return int(self.assignments.shape[0])


def _partition_from_assignments(assignments: np.ndarray, h: int) -> ClusterPartition:
    sets = tuple(
        np.flatnonzero(assignments == label).astype(np.intp) for label in range(h)
    )
    return ClusterPartition(
        assignments=assignments.astype(np.intp), index_sets=sets, cluster_count=h
    )


# ----------------------------------------------------------------- k-means

def _kmeans_pp_init(points: np.ndarray, k: int, rng) -> np.ndarray:
    n = points.shape[0]
    sq = (points * points).sum(axis=1)
    picks = [int(rng.integers(n))]
    closest = _sq_dists_to(points, sq, picks[0])
    for _ in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        picks.append(idx)
        closest = np.minimum(closest, _sq_dists_to(points, sq, idx))
    return points[picks]


def _sq_dists_to(points: np.ndarray, sq: np.ndarray, idx: int) -> np.ndarray:
    """Squared distances of every row to row idx: one matvec on the
    precomputed squared norms. Values within roundoff of zero become exactly
    zero (row idx itself always), so picked rows and their exact duplicates
    carry no k-means++ mass."""
    d2 = sq + sq[idx] - 2.0 * (points @ points[idx])
    d2[d2 <= _ROUNDOFF * (sq + sq[idx])] = 0.0
    d2[idx] = 0.0
    return d2


def _sq_dists(points: np.ndarray, sq: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # expansion form keeps memory at (n, k) instead of (n, k, d); sq holds
    # the rows' squared norms, which stay fixed across Lloyd iterations
    d2 = sq[:, None] \
        - 2.0 * (points @ centroids.T) \
        + (centroids * centroids).sum(axis=1)[None, :]
    return np.maximum(d2, 0.0)


def _lloyd(points: np.ndarray, centroids: np.ndarray, iters: int):
    sq = (points * points).sum(axis=1)
    assign = None
    for _ in range(iters):
        d2 = _sq_dists(points, sq, centroids)
        new_assign = d2.argmin(axis=1)  # ties resolve to the lowest centroid
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(centroids.shape[0]):
            members = assign == j
            if members.any():
                centroids[j] = points[members].mean(axis=0)
    d2 = _sq_dists(points, sq, centroids)
    assign = d2.argmin(axis=1)
    inertia = float(d2[np.arange(points.shape[0]), assign].sum())
    return assign, centroids, inertia


def kmeans_fit(points, k: int, seed: int, restarts: int = KMEANS_RESTARTS,
               iters: int = KMEANS_ITERS):
    """Best-of-restarts Lloyd iteration; lowest restart index wins ties.

    Returns (assignments, centroids, inertia). Deterministic per seed.
    """
    pts = as_matrix(points, "points")
    if pts.shape[0] == 0:
        raise EmptyInput("no points to cluster")
    if k < 1 or k > pts.shape[0]:
        raise HTooLarge(f"k={k} invalid for {pts.shape[0]} points")
    best = None
    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        centroids = _kmeans_pp_init(pts, k, rng)
        assign, centroids, inertia = _lloyd(pts, centroids.copy(), iters)
        if best is None or inertia < best[2]:
            best = (assign, centroids, inertia)
    return best


def _repair_empty(assign: np.ndarray, points: np.ndarray, k: int) -> np.ndarray:
    """Give every empty label one member: split the largest cluster at its
    farthest-from-centroid point."""
    assign = assign.copy()
    for label in range(k):
        if (assign == label).any():
            continue
        sizes = np.bincount(assign, minlength=k)
        donor = int(sizes.argmax())
        members = np.flatnonzero(assign == donor)
        centroid = points[members].mean(axis=0)
        far = members[int(((points[members] - centroid) ** 2).sum(axis=1).argmax())]
        assign[far] = label
    return assign


# ------------------------------------------------------------- clustering

def spectral_cluster(kbar, h: int, seed: int) -> ClusterPartition:
    """Partition samples by the spectral embedding of the averaged kernel.

    Samples with zero affinity to everything (zero-degree rows) are split
    off as singleton clusters before the embedding; if they already use up
    all H labels the instance is degenerate.
    """
    k = as_matrix(kbar, "kbar")
    n = k.shape[0]
    if n == 0:
        raise EmptyInput("empty kernel")
    if k.shape[0] != k.shape[1]:
        raise InputError(f"kernel must be square, got {k.shape}")
    if h < 1 or h > n:
        raise HTooLarge(f"H={h} invalid for n={n}")
    if h == 1:
        return _partition_from_assignments(np.zeros(n, dtype=np.intp), 1)

    affinity = np.maximum(k, 0.0)
    degrees = affinity.sum(axis=1)
    isolated = np.flatnonzero(degrees <= 0.0)
    connected = np.flatnonzero(degrees > 0.0)
    h_rest = h - isolated.size
    if h_rest < 1 or h_rest > connected.size:
        raise DisconnectedDegenerate(
            f"{isolated.size} zero-degree samples leave no room for {h} clusters"
        )

    assignments = np.empty(n, dtype=np.intp)
    # isolated samples occupy the leading labels, one each
    for label, idx in enumerate(isolated):
        assignments[idx] = label

    sub = affinity[np.ix_(connected, connected)]
    inv_sqrt = 1.0 / np.sqrt(sub.sum(axis=1))
    lap = np.eye(connected.size) - inv_sqrt[:, None] * sub * inv_sqrt[None, :]
    eig = sym_eig(lap)
    # bottom h_rest eigenvectors: eig is descending, take trailing columns
    embed = eig.vectors[:, -h_rest:]
    norms = np.linalg.norm(embed, axis=1, keepdims=True)
    embed = np.where(norms > 1e-300, embed / np.maximum(norms, 1e-300), embed)

    if h_rest == 1:
        sub_assign = np.zeros(connected.size, dtype=np.intp)
    else:
        sub_assign, _, _ = kmeans_fit(embed, h_rest, seed)
        sub_assign = _repair_empty(sub_assign, embed, h_rest)
    assignments[connected] = isolated.size + sub_assign
    return _partition_from_assignments(assignments, h)


def restrict_kernel(kernel_matrix, indices) -> np.ndarray:
    """Principal submatrix on the given sorted index set."""
    k = as_matrix(kernel_matrix, "kernel")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise EmptyInput("need a non-empty 1-d index set")
    if idx.min() < 0 or idx.max() >= k.shape[0]:
        raise IndexOutOfRange(
            f"indices must lie in [0, {k.shape[0]}), got range "
            f"[{idx.min()}, {idx.max()}]"
        )
    if np.any(np.diff(idx) <= 0):
        raise InputError("indices must be strictly increasing")
    return k[np.ix_(idx, idx)]
