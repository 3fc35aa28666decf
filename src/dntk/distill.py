"""Local-global distillation of gradient features.

The class-averaged kernel is clustered, each cluster contributes its top
local eigenmodes as synthetic gradients, and global eigendirections that no
cluster's local subspace covers (the gap set) are synthesized from the full
sample set. Every synthetic gradient is a linear combination of real
gradient rows, applied with the same combination vector to every class
slice and to the soft targets. Candidates are combination vectors only, kept
as three arrays side by side: the lifted columns, one int64 provenance row
(kind, a, b) each, (LOCAL, cluster, eig index) or (GAP, eig index, 0), and
one eigenvalue each. A rank-revealing QR pass drops the columns that are
linear combinations of earlier ones, and the kept vectors L then give the
set in one product per array, L^T Phi_c for every class and L^T y for the
targets. DistilledGradients and CoverageReport hold exactly the arrays
distilled.npz stores. The averaged kernel and its two decompositions, its
eigensystem and its Laplacian spectrum, come from the cluster.KernelSpectra
made for the features, the task's own when the caller has a task, so every
distillation of one task's kernel shares them; the per-cluster
eigensystems depend on the partition and are computed in every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadEps, InputError, RankZeroCluster
from .cluster import ClusterPartition, KernelSpectra, restrict_kernel, spectral_cluster
from .kernel import kept_rank
from .numerics import EigenSystem, qr_redundancy_filter, sym_eig, sym_eig_bytes
from .sketch import require_memory
from .tangent import GradientFeatures

# provenance kinds, the first entry of each provenance row
LOCAL = 0
GAP = 1


@dataclass(frozen=True)
class CoverageReport:
    """How well local subspaces explain the leading global eigendirections."""

    r_global: int
    local_ranks: np.ndarray  # (h,) int64 kept rank of each cluster
    coverage: np.ndarray  # (r_global,) best local coverage per direction
    gap_set: np.ndarray  # (g,) int64 global eigen indices below the coverage threshold
    tau_v: float
    tau_g: float


@dataclass(frozen=True)
class DistilledGradients:
    phi_hat: np.ndarray  # (C, s, D)
    y_hat: np.ndarray  # (s, C)
    provenance: np.ndarray  # (s, 3) int64 (LOCAL, cluster, eig index) or (GAP, eig index, 0)
    lifted_basis: np.ndarray  # (m, s) combination vectors over the sample set
    eigenvalues: np.ndarray  # (s,) eigenvalue behind each row

    @property
    def size(self) -> int:
        return int(self.phi_hat.shape[1])


def local_eigensystems(
    kbar: np.ndarray, partition: ClusterPartition, tau_v: float
) -> list[tuple[EigenSystem, int]]:
    """Per-cluster eigendecomposition of the restricted kernel plus its
    kept rank at the shared variance threshold.

    Every cluster's eigenvectors are held, and beside them the largest
    cluster's kernel and decomposition at most: that is refused with
    InsufficientMemory before the first is made if it does not fit."""
    sizes = [idx.size for idx in partition.index_sets]
    largest = max(sizes)
    require_memory(8 * sum(m * m for m in sizes) + 8 * largest * largest
                   + sym_eig_bytes(largest), f"the eigensystems of {len(sizes)} clusters "
                   f"of at most {largest} samples")
    systems = []
    for h, idx in enumerate(partition.index_sets):
        sub = restrict_kernel(kbar, idx)
        vals_trace = np.maximum(np.diag(sub), 0.0).sum()
        if vals_trace <= 0.0:
            raise RankZeroCluster(f"cluster {h} has a zero restricted kernel")
        eig = sym_eig(sub)
        r_h = kept_rank(eig.values, 1.0 - tau_v)
        if r_h == 0:
            raise RankZeroCluster(f"cluster {h} has no eigenmode above the noise floor")
        systems.append((eig, r_h))
    return systems


def coverage_coefficients(
    global_eig: EigenSystem,
    r_global: int,
    partition: ClusterPartition,
    local_systems: list[tuple[EigenSystem, int]],
) -> np.ndarray:
    """Best local coverage of each leading global eigendirection.

    For global direction j, each cluster scores the squared norm fraction of
    the direction's restriction that its truncated local eigenspace
    captures; the direction's coverage is the best score over clusters.
    Restrictions with numerically zero mass on a cluster score zero there.
    """
    coverage = np.zeros(r_global)
    for (eig, r_h), idx in zip(local_systems, partition.index_sets):
        u = global_eig.vectors[idx, :r_global]  # every restriction at once
        captured = eig.vectors[:, :r_h].T @ u
        sq = (u * u).sum(axis=0)
        held = sq >= 1e-24
        score = (captured * captured).sum(axis=0)[held] / sq[held]
        coverage[held] = np.maximum(coverage[held], score)
    return coverage


def gap_directions(coverage: np.ndarray, tau_g: float) -> np.ndarray:
    """int64 global eigen indices whose best local coverage falls below tau_g."""
    if not (0.0 <= tau_g <= 1.0):
        raise BadEps(f"tau_g must lie in [0, 1], got {tau_g}")
    return np.flatnonzero(coverage < tau_g).astype(np.int64)


def synthesize_local(
    partition: ClusterPartition,
    local_systems: list[tuple[EigenSystem, int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every kept local eigenmode as a unit column, zero outside its cluster.

    Returns the (m, n) lifted columns, their (n, 3) provenance rows
    (LOCAL, cluster, eig index) and their n eigenvalues.
    """
    provenance = np.array([(LOCAL, h, j) for h, (_, r_h) in enumerate(local_systems)
                           for j in range(r_h)], dtype=np.int64)
    lifted = np.zeros((partition.size, len(provenance)))
    for col, (_, h, j) in enumerate(provenance):
        u = local_systems[h][0].vectors[:, j]
        lifted[partition.index_sets[h], col] = u / np.linalg.norm(u)
    values = np.concatenate([eig.values[:r_h] for eig, r_h in local_systems])
    return lifted, provenance, values


def synthesize_gap(
    global_eig: EigenSystem, gap_set: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every uncovered global direction as a unit column over all samples.

    Returns the (m, g) lifted columns, their (g, 3) provenance rows
    (GAP, eig index, 0) and their g eigenvalues.
    """
    provenance = np.zeros((len(gap_set), 3), dtype=np.int64)
    provenance[:, 0], provenance[:, 1] = GAP, gap_set
    lifted = np.empty((global_eig.vectors.shape[0], len(gap_set)))
    for col, j in enumerate(provenance[:, 1]):
        v = global_eig.vectors[:, j]
        lifted[:, col] = v / np.linalg.norm(v)
    return lifted, provenance, global_eig.values[provenance[:, 1]]


def distill(
    feats: GradientFeatures,
    h: int,
    tau_v: float = 0.95,
    tau_g: float = 0.5,
    eps_qr: float = 1e-6,
    seed: int = 0,
    max_size: int | None = None,
    spectra: KernelSpectra | None = None,
) -> tuple[DistilledGradients, CoverageReport]:
    """Distill a gradient feature set into synthetic gradient/target pairs.

    Pipeline: cluster the class-averaged kernel into h groups, keep each
    cluster's top eigenmodes up to a tau_v trace fraction, flag leading
    global eigendirections whose best local coverage is below tau_g, and
    synthesize gradients for both. Redundant candidates are removed by a
    rank-revealing QR on the lifted combination vectors. When max_size is
    given, surviving candidates are trimmed to the largest eigenvalues,
    ties to the lowest index. Only the kept vectors are applied to the
    gradient rows and to the model logits, the regression targets of every
    kernel fit. The averaged kernel and its eigensystem and Laplacian
    spectrum come from spectra, which must be made for feats (InputError
    otherwise), or from a fresh holder for feats when it is None.
    """
    if not (0.0 < tau_v <= 1.0):
        raise BadEps(f"tau_v must lie in (0, 1], got {tau_v}")
    if not (0.0 <= tau_g <= 1.0):
        raise BadEps(f"tau_g must lie in [0, 1], got {tau_g}")
    if max_size is not None and max_size < 1:
        raise InputError(f"max_size must be >= 1, got {max_size}")

    spectra = KernelSpectra.for_features(feats, spectra)
    kbar = spectra.kbar()
    partition = spectral_cluster(kbar, h, seed, spectra)

    global_eig = spectra.eig(kbar)
    r_global = kept_rank(global_eig.values, 1.0 - tau_v)

    local_systems = local_eigensystems(kbar, partition, tau_v)
    coverage = coverage_coefficients(global_eig, r_global, partition, local_systems)
    gaps = gap_directions(coverage, tau_g)

    local_cols, local_prov, local_vals = synthesize_local(partition, local_systems)
    gap_cols, gap_prov, gap_vals = synthesize_gap(global_eig, gaps)
    lifted = np.hstack((local_cols, gap_cols))
    provenance = np.vstack((local_prov, gap_prov))
    values = np.concatenate((local_vals, gap_vals))

    kept = qr_redundancy_filter(lifted, eps_qr)
    if kept.size == 0:
        raise RankZeroCluster("every candidate was filtered as redundant")
    if max_size is not None and kept.size > max_size:
        by_energy = np.lexsort((kept, -values[kept]))
        kept = np.sort(kept[by_energy[:max_size]])

    report = CoverageReport(
        r_global=r_global,
        local_ranks=np.array([r for _, r in local_systems], dtype=np.int64),
        coverage=coverage,
        gap_set=gaps,
        tau_v=float(tau_v),
        tau_g=float(tau_g),
    )
    basis = lifted[:, kept]
    dg = DistilledGradients(
        phi_hat=basis.T @ feats.per_class,
        y_hat=basis.T @ feats.model_logits,
        provenance=provenance[kept],
        lifted_basis=basis,
        eigenvalues=values[kept],
    )
    return dg, report


def weighted_local_containment(
    global_eig: EigenSystem,
    r_global: int,
    partition: ClusterPartition,
    local_systems: list[tuple[EigenSystem, int]],
) -> np.ndarray:
    """Eigenvalue-weighted fraction of each cluster's kept local modes that
    lies inside the span of the restricted leading global directions.

    The restriction of the global top block to a cluster is orthonormalized
    first (it is generally rank-deficient); containment 1 means the local
    subspace carries no information the global block misses.
    """
    out = np.zeros(partition.cluster_count)
    for h, ((eig, r_h), idx) in enumerate(zip(local_systems, partition.index_sets)):
        block = global_eig.vectors[idx, :r_global]
        u, s, _ = np.linalg.svd(block, full_matrices=False)
        keep = s > 1e-10 * max(s[0], 1e-300) if s.size else np.zeros(0, dtype=bool)
        q = u[:, keep]
        num = 0.0
        den = 0.0
        for j in range(r_h):
            lam = max(float(eig.values[j]), 0.0)
            vec = eig.vectors[:, j]
            proj = q.T @ vec
            num += lam * float(proj @ proj)
            den += lam
        out[h] = num / den if den > 0.0 else 0.0
    return out


def compression_ratio(m: int, s: int) -> float:
    """Samples represented per synthetic gradient."""
    if m < 1 or s < 1:
        raise InputError(f"need positive sizes, got m={m}, s={s}")
    return m / s
