import numpy as np
import pytest

from dntk.errors import DisconnectedDegenerate, HTooLarge, IndexOutOfRange
from dntk.cluster import (
    ClusterPartition,
    _kmeans_pp_init,
    _sq_dists,
    kmeans_fit,
    restrict_kernel,
    spectral_cluster,
)


def block_kernel(sizes, value=1.0, seed=None):
    """Block-diagonal affinity with constant positive blocks."""
    n = sum(sizes)
    k = np.zeros((n, n))
    start = 0
    for sz in sizes:
        k[start:start + sz, start:start + sz] = value
        start += sz
    if seed is not None:
        rng = np.random.default_rng(seed)
        noise = 0.01 * rng.normal(size=(n, n))
        k = k + (noise + noise.T) / 2
    return k


def index_sets(partition):
    return {frozenset(s.tolist()) for s in partition.index_sets}


class TestKmeansFit:
    def test_two_obvious_clusters(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
        assign, _, _ = kmeans_fit(pts, 2, seed=0)
        assert assign[0] == assign[1]
        assert assign[2] == assign[3]
        assert assign[0] != assign[2]

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(30, 3))
        a, _, _ = kmeans_fit(pts, 4, seed=7)
        b, _, _ = kmeans_fit(pts, 4, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_k_equals_n(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(5, 2))
        assign, _, _ = kmeans_fit(pts, 5, seed=0)
        assert sorted(assign.tolist()) == [0, 1, 2, 3, 4]

    def test_duplicate_points(self):
        pts = np.zeros((6, 2))
        pts[3:] = 1.0
        assign, _, _ = kmeans_fit(pts, 2, seed=3)
        assert len(set(assign[:3].tolist())) == 1
        assert len(set(assign[3:].tolist())) == 1


def test_sq_dists_with_precomputed_norms_is_bitwise_the_recomputing_form():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(40, 9)) * rng.uniform(0.01, 100.0, size=(40, 1))
    centroids = rng.normal(size=(6, 9))
    recomputed = np.maximum(
        (points * points).sum(axis=1)[:, None]
        - 2.0 * (points @ centroids.T)
        + (centroids * centroids).sum(axis=1)[None, :],
        0.0,
    )
    sq = (points * points).sum(axis=1)
    np.testing.assert_array_equal(_sq_dists(points, sq, centroids), recomputed)


def subtraction_pp_picks(points, k, rng):
    """k-means++ seeding with each distance formed as a difference of rows."""
    n = points.shape[0]
    picks = [int(rng.integers(n))]
    closest = ((points - points[picks[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        picks.append(idx)
        closest = np.minimum(closest, ((points - points[idx]) ** 2).sum(axis=1))
    return picks


class TestKmeansPlusPlusInit:
    def test_matches_subtraction_form_on_duplicates(self):
        # 3 distinct rows, 4 copies each: once all 3 are picked no mass is
        # left, so the remaining picks take the uniform fallback
        rng = np.random.default_rng(8)
        distinct = rng.normal(size=(3, 7)) * np.array([[0.3], [1.0], [40.0]])
        pts = distinct[rng.permutation(np.repeat(np.arange(3), 4))]
        for seed in range(20):
            picks = subtraction_pp_picks(pts, 6, np.random.default_rng(seed))
            assert len({tuple(pts[i]) for i in picks[:3]}) == 3
            np.testing.assert_array_equal(
                _kmeans_pp_init(pts, 6, np.random.default_rng(seed)), pts[picks]
            )


class TestSpectralCluster:
    def test_h_one_single_cluster(self):
        k = block_kernel([4, 4], seed=0)
        part = spectral_cluster(k, 1, seed=0)
        assert part.cluster_count == 1
        np.testing.assert_array_equal(part.index_sets[0], np.arange(8))

    def test_block_recovery(self):
        k = block_kernel([5, 7, 6], seed=1)
        part = spectral_cluster(k, 3, seed=0)
        expected = {frozenset(range(5)), frozenset(range(5, 12)),
                    frozenset(range(12, 18))}
        assert index_sets(part) == expected

    def test_partition_invariants(self):
        k = block_kernel([4, 3, 5], seed=2)
        part = spectral_cluster(k, 3, seed=1)
        all_indices = np.concatenate(part.index_sets)
        assert sorted(all_indices.tolist()) == list(range(12))
        for s in part.index_sets:
            assert s.size > 0
            assert np.all(np.diff(s) > 0)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(14, 6))
        k = b @ b.T
        a = spectral_cluster(k, 4, seed=9)
        b2 = spectral_cluster(k, 4, seed=9)
        np.testing.assert_array_equal(a.assignments, b2.assignments)

    def test_permutation_equivariance_as_sets(self):
        k = block_kernel([5, 6, 4], seed=4)
        rng = np.random.default_rng(5)
        perm = rng.permutation(15)
        part = spectral_cluster(k, 3, seed=2)
        part_p = spectral_cluster(k[np.ix_(perm, perm)], 3, seed=2)
        mapped = {frozenset(np.flatnonzero(np.isin(perm, list(s))).tolist())
                  for s in index_sets(part)}
        assert index_sets(part_p) == mapped

    def test_h_too_large(self):
        k = block_kernel([3])
        with pytest.raises(HTooLarge):
            spectral_cluster(k, 4, seed=0)

    def test_zero_degree_row_gets_own_cluster(self):
        # row 5 disconnected: negative entries clip to zero affinity
        k = block_kernel([5], value=1.0)
        k = np.pad(k, ((0, 1), (0, 1)))
        k[5, 5] = 0.0
        part = spectral_cluster(k, 2, seed=0)
        assert frozenset([5]) in index_sets(part)

    def test_all_rows_disconnected_raises(self):
        with pytest.raises(DisconnectedDegenerate):
            spectral_cluster(np.zeros((4, 4)), 2, seed=0)


class TestRestrictKernel:
    def test_full_set_identity(self):
        rng = np.random.default_rng(6)
        b = rng.normal(size=(7, 4))
        k = b @ b.T
        np.testing.assert_array_equal(restrict_kernel(k, np.arange(7)), k)

    def test_singleton(self):
        k = np.diag([2.0, 5.0, 7.0])
        np.testing.assert_array_equal(restrict_kernel(k, np.array([1])), [[5.0]])

    def test_gather_oracle(self):
        rng = np.random.default_rng(7)
        b = rng.normal(size=(9, 5))
        k = b @ b.T
        idx = np.array([1, 4, 6])
        sub = restrict_kernel(k, idx)
        for a, i in enumerate(idx):
            for bb, j in enumerate(idx):
                assert sub[a, bb] == k[i, j]

    def test_out_of_range(self):
        k = np.eye(3)
        with pytest.raises(IndexOutOfRange):
            restrict_kernel(k, np.array([0, 3]))


class TestPartitionType:
    def test_fields_consistent(self):
        k = block_kernel([4, 4], seed=8)
        part = spectral_cluster(k, 2, seed=0)
        assert isinstance(part, ClusterPartition)
        for h, s in enumerate(part.index_sets):
            assert np.all(part.assignments[s] == h)
