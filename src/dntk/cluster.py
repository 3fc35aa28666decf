"""Spectral clustering of the class-averaged kernel.

Affinity is the clamped kernel, the Laplacian is the symmetric normalized
one, and the embedding rows are clustered with a fully seeded k-means
(k-means++ seeding, fixed restart and iteration budget, lowest-index tie
breaks) so a partition is reproducible bit-for-bit from (kernel, H, seed).

Clustering splits in two. laplacian_spectrum reads the kernel alone: which
samples have zero affinity to everything, and the eigensystem of the
Laplacian of the rest. spectral_cluster then does the (H, seed) part:
slice the bottom eigenvectors, normalize them and run k-means.

KernelSpectra is made for one sketched training set. It is the one place
the averaged kernel kbar is formed, and it holds what the set's methods
decompose: the kernel part of clustering, the kernel's own eigensystem,
which distillation and the leverage baseline read, and the rows' QR
coordinates (row_coordinates), which the fps and k-means baselines pick
on. A task holds one, so each is computed once per task.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedDegenerate,
    EmptyInput,
    HTooLarge,
    IndexOutOfRange,
    InputError,
)
from .kernel import average_kernel, build_stack
from .numerics import EigenSystem, as_matrix, sym_eig
from .tangent import GradientFeatures

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

def _kmeans_pp_init(points: np.ndarray, k: int, rngs) -> np.ndarray:
    """k-means++ seeds for one restart per rng, as an (R, k, d) array.

    Each rng makes the draws a lone seeding would: integers for the first
    pick, then per pick choice weighted by the squared distance to the
    nearest earlier pick (integers once no mass is left). The restarts
    share one (R, d) x (d, n) distance product per pick step.
    """
    n = points.shape[0]
    sq = (points * points).sum(axis=1)
    picks = np.empty((len(rngs), k), dtype=np.intp)
    picks[:, 0] = [rng.integers(n) for rng in rngs]
    closest = _sq_dists_to(points, sq, picks[:, 0])  # (R, n)
    for j in range(1, k):
        totals = closest.sum(axis=1)
        for r, (rng, total) in enumerate(zip(rngs, totals)):
            if total <= 0.0:
                picks[r, j] = rng.integers(n)
            else:
                picks[r, j] = rng.choice(n, p=closest[r] / total)
        np.minimum(closest, _sq_dists_to(points, sq, picks[:, j]), out=closest)
    return points[picks]


def _sq_dists_to(points: np.ndarray, sq: np.ndarray, idx) -> np.ndarray:
    """Squared distances of every row to row idx, (n,), or for an index
    array to each row it names, (len(idx), n): one product on the
    precomputed squared norms. Values within roundoff of zero become exactly
    zero (row idx itself always), so picked rows and their exact duplicates
    carry no k-means++ mass."""
    pair = sq[idx, None] + sq
    d2 = pair - 2.0 * (points[idx] @ points.T)
    d2[d2 <= _ROUNDOFF * pair] = 0.0
    d2.reshape(-1, sq.size)[np.arange(np.size(idx)), idx] = 0.0
    return d2


def _sq_dists(points: np.ndarray, sq: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared distances of every row to every centroid, clamped at zero.

    centroids is (k, d) or, for several restarts, (R, k, d), and the result
    (n, k) or (n, R, k): all centroids go through one points @ C^T product.
    The expansion form keeps memory at n x (centroid count) instead of
    (n, k, d); sq holds the rows' squared norms, which stay fixed across
    Lloyd iterations, and the centroid norms are summed one set at a time.
    """
    sets = centroids.reshape(-1, *centroids.shape[-2:])
    d2 = points @ sets.reshape(-1, sets.shape[-1]).T
    d2 *= -2.0
    d2 += sq[:, None]
    d2 += np.concatenate([(c * c).sum(axis=1) for c in sets])[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2.reshape((points.shape[0],) + centroids.shape[:-1])


def kmeans_fit(points, k: int, seed: int):
    """Best-of-KMEANS_RESTARTS Lloyd iteration; lowest restart index wins ties.

    Restart r seeds by k-means++ from rng (seed, r) and runs Lloyd steps
    until its assignments repeat or KMEANS_ITERS updates have run; a
    cluster left empty keeps its centroid. The restarts run together: the
    ones still moving get their distances from one product per step, and
    each updates its centroids as a (k, n) one-hot matrix times the points.
    Returns (assignments, centroids, inertia). Deterministic per seed.
    """
    pts = as_matrix(points, "points")
    if pts.shape[0] == 0:
        raise EmptyInput("no points to cluster")
    if k < 1 or k > pts.shape[0]:
        raise HTooLarge(f"k={k} invalid for {pts.shape[0]} points")
    sq = (pts * pts).sum(axis=1)
    # centroids of the restarts still moving, in restart order
    active = _kmeans_pp_init(
        pts, k, [np.random.default_rng((seed, r)) for r in range(KMEANS_RESTARTS)]
    )
    moving = np.arange(KMEANS_RESTARTS)
    assign = np.full((KMEANS_RESTARTS, pts.shape[0]), -1, dtype=np.intp)
    labels = np.arange(k)[:, None]
    best = (np.inf, KMEANS_RESTARTS, None)  # (inertia, restart, centroids)
    for step in range(KMEANS_ITERS + 1):
        d2 = _sq_dists(pts, sq, active)  # (n, A, k)
        closest = d2.argmin(axis=2)  # (n, A); ties resolve to the lowest centroid
        nearest = np.take_along_axis(d2, closest[:, :, None], axis=2)[:, :, 0]
        del d2  # else it lives on while the next step's product is allocated
        new = np.ascontiguousarray(closest.T)  # (A, n)
        done = (new == assign[moving]).all(axis=1) | (step == KMEANS_ITERS)
        assign[moving] = new
        if done.any():
            # contiguous per-restart rows keep each inertia a pairwise sum
            inertias = np.ascontiguousarray(nearest[:, done].T).sum(axis=1)
            for r, c, inertia in zip(moving[done], active[done], inertias):
                if (inertia, r) < best[:2]:
                    best = (float(inertia), int(r), c)
            moving, active, new = moving[~done], active[~done], new[~done]
        if moving.size == 0:
            break
        for c, a in zip(active, new):
            onehot = (a == labels).astype(np.float64)  # (k, n)
            counts = onehot.sum(axis=1)[:, None]
            np.divide(onehot @ pts, counts, out=c, where=counts > 0.0)
    inertia, r, centroids = best
    return assign[r], centroids, inertia


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

@dataclass(frozen=True)
class LaplacianSpectrum:
    """The kernel-only half of spectral clustering."""

    isolated: np.ndarray  # sample ids with zero affinity to everything
    connected: np.ndarray  # every other sample id, ascending
    eig: EigenSystem | None  # of the connected block's Laplacian; None if no sample is connected


def laplacian_spectrum(kbar) -> LaplacianSpectrum:
    """Split off the zero-degree samples of the clamped affinity max(kbar, 0)
    and decompose the symmetric normalized Laplacian of the rest."""
    affinity = np.maximum(as_matrix(kbar, "kbar"), 0.0)
    degrees = affinity.sum(axis=1)
    isolated = np.flatnonzero(degrees <= 0.0)
    connected = np.flatnonzero(degrees > 0.0)
    if connected.size == 0:
        return LaplacianSpectrum(isolated, connected, None)
    sub = affinity[np.ix_(connected, connected)]
    inv_sqrt = 1.0 / np.sqrt(sub.sum(axis=1))
    lap = np.eye(connected.size) - inv_sqrt[:, None] * sub * inv_sqrt[None, :]
    return LaplacianSpectrum(isolated, connected, sym_eig(lap))


def flatten_rows(per_class: np.ndarray) -> np.ndarray:
    """Concatenate class slices per sample: (C, m, D) -> (m, C * D)."""
    c, m, d = per_class.shape
    return per_class.transpose(1, 0, 2).reshape(m, c * d)


def row_coordinates(per_class) -> np.ndarray:
    """(m, min(m, C * D)) coordinates of the samples' flattened gradient rows
    x with every pairwise distance kept: R^T of the QR factorization
    x^T = QR. Distance-only selections (fps, k-means) pick the same rows
    on them as on x, in a space at most m wide."""
    x = as_matrix(flatten_rows(per_class), "rows")
    return np.linalg.qr(x.T, mode="r").T


class KernelSpectra:
    """The decompositions of one sketched training set, feats, each computed
    on first use and held: the eigensystem and Laplacian spectrum of the
    first kbar given, which must come from kbar(), and the rows' QR
    coordinates. kbar() forms the averaged kernel anew on every call. One
    lock makes the first use compute once when cells share a holder across
    threads, and the held arrays are read-only, since every caller shares
    them.
    """

    def __init__(self, feats: GradientFeatures):
        self.feats = feats
        self._lock = threading.Lock()
        self._held: dict = {}  # entry name -> result

    @classmethod
    def for_features(cls, feats: GradientFeatures, spectra=None) -> "KernelSpectra":
        """spectra if it was made for feats, else InputError; a fresh holder when None."""
        if spectra is not None and spectra.feats is not feats:
            raise InputError("the kernel holder was made for other features")
        return cls(feats) if spectra is None else spectra

    def kbar(self) -> np.ndarray:
        """The class-averaged kernel of feats, at build_stack's default scale."""
        return average_kernel(build_stack(self.feats))

    def eig(self, kbar) -> EigenSystem:
        """sym_eig(kbar), computed once."""
        return self._get("eig", sym_eig, self._square(kbar))

    def laplacian(self, kbar) -> LaplacianSpectrum:
        """laplacian_spectrum(kbar), computed once."""
        return self._get("laplacian", laplacian_spectrum, self._square(kbar))

    def coordinates(self) -> np.ndarray:
        """row_coordinates of feats' rows, computed once."""
        return self._get("coordinates", row_coordinates, self.feats.per_class)

    def _square(self, kbar) -> np.ndarray:
        k, n = as_matrix(kbar, "kbar"), self.feats.size
        if k.shape != (n, n):
            raise InputError(f"kbar of {n} samples must be {n} x {n}, got {k.shape}")
        return k

    def _get(self, name: str, compute, arg):
        with self._lock:
            if name not in self._held:
                self._held[name] = _read_only(compute(arg))
            return self._held[name]


def _read_only(result):
    """Mark a held array, or every array of a held result (nested
    EigenSystems included), read-only."""
    if isinstance(result, np.ndarray):
        result.flags.writeable = False
    elif isinstance(result, (EigenSystem, LaplacianSpectrum)):
        for part in vars(result).values():
            _read_only(part)
    return result


def spectral_cluster(
    kbar, h: int, seed: int, spectra: KernelSpectra | None = None
) -> ClusterPartition:
    """Partition samples by the spectral embedding of the averaged kernel.

    Samples with zero affinity to everything (zero-degree rows) are split
    off as singleton clusters before the embedding; if they already use up
    all H labels the instance is degenerate. The Laplacian spectrum comes
    from spectra, the holder kbar was formed by, or is computed here when
    it is None; the partition is the same bits either way.
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

    lap = spectra.laplacian(k) if spectra is not None else laplacian_spectrum(k)
    isolated, connected = lap.isolated, lap.connected
    h_rest = h - isolated.size
    if h_rest < 1 or h_rest > connected.size:
        raise DisconnectedDegenerate(
            f"{isolated.size} zero-degree samples leave no room for {h} clusters"
        )

    assignments = np.empty(n, dtype=np.intp)
    # isolated samples occupy the leading labels, one each
    for label, idx in enumerate(isolated):
        assignments[idx] = label

    # bottom h_rest eigenvectors: eig is descending, take trailing columns
    embed = lap.eig.vectors[:, -h_rest:]
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
