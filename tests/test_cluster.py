import dataclasses
import sys
import threading

import numpy as np
import pytest
from helpers import clustered_rows, feats_from_blocks, kmeans_restart_loop

from dntk import cluster
from dntk.errors import (
    DisconnectedDegenerate,
    HTooLarge,
    IndexOutOfRange,
    InputError,
)
from dntk.cluster import (
    KMEANS_RESTARTS,
    ClusterPartition,
    KernelSpectra,
    _kmeans_pp_init,
    _sq_dists,
    kmeans_fit,
    restrict_kernel,
    row_coordinates,
    spectral_cluster,
)
from dntk.kernel import average_kernel, build_stack
from dntk.numerics import sym_eig


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


def block_rows(sizes, seed=None, classes=2):
    """(C, n, D) rows of block indicators, plus 0.01 noise when seeded: their
    averaged kernel is a block kernel like block_kernel's."""
    rows = np.zeros((classes, sum(sizes), len(sizes)))
    rows[:, np.arange(sum(sizes)), np.repeat(np.arange(len(sizes)), sizes)] = 1.0
    if seed is not None:
        rows += 0.01 * np.random.default_rng(seed).normal(size=rows.shape)
    return rows


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


def _assert_matches_restart_loop(pts, k, seed):
    assign, centroids, inertia = kmeans_fit(pts, k, seed)
    ref_assign, ref_centroids, ref_inertia = kmeans_restart_loop(pts, k, seed)
    np.testing.assert_array_equal(assign, ref_assign)
    # relative to the points' energy: on exact duplicates the inertia is
    # itself roundoff of the norm expansion
    assert abs(inertia - ref_inertia) <= 1e-12 * max(ref_inertia, (pts**2).sum())
    np.testing.assert_allclose(centroids, ref_centroids, rtol=1e-12, atol=1e-12)
    return assign


class TestBatchedRestarts:
    """kmeans_fit runs its restarts together; tests.helpers keeps them one
    after another, each centroid updated by a mask and a mean."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_blobs(self, seed):
        rng = np.random.default_rng(30 + seed)
        sizes = rng.integers(3, 25, size=int(rng.integers(2, 7))).tolist()
        pts, _ = clustered_rows(sizes, dim=len(sizes) + 3, seed=seed, noise=0.4)
        for k in (1, 2, len(sizes), len(sizes) + 2):
            _assert_matches_restart_loop(pts, k, seed)

    def test_exact_duplicate_points(self):
        rng = np.random.default_rng(31)
        distinct = rng.normal(size=(5, 4))
        pts = distinct[rng.integers(5, size=40)]
        for k in (2, 3, 5):
            _assert_matches_restart_loop(pts, k, seed=2)

    def test_k_that_leaves_a_cluster_empty(self):
        # 3 distinct rows, k = 5: k-means++ falls back to uniform picks once
        # all 3 are taken, so some centroids duplicate others and stay empty
        rng = np.random.default_rng(32)
        pts = rng.normal(size=(3, 6))[rng.permutation(np.repeat(np.arange(3), 4))]
        assign = _assert_matches_restart_loop(pts, 5, seed=4)
        assert np.unique(assign).size == 3

    def test_exact_ties_go_to_the_lowest_restart(self):
        # every restart seeds one centroid per group of exact duplicates and
        # stops at once on the same partition, with the same per-point
        # distances; only the order of the labels differs between restarts
        rng = np.random.default_rng(33)
        pts = (rng.normal(size=(3, 5)) * 10.0)[np.repeat(np.arange(3), 4)]

        def seeded_labels(r):
            init = _kmeans_pp_init(pts, 3, [np.random.default_rng((12, r))])[0]
            return ((pts[:, None] - init) ** 2).sum(axis=2).argmin(axis=1)

        assert not np.array_equal(seeded_labels(0), seeded_labels(KMEANS_RESTARTS - 1))
        assign, _, _ = kmeans_fit(pts, 3, seed=12)
        np.testing.assert_array_equal(assign, seeded_labels(0))
        np.testing.assert_array_equal(assign, kmeans_restart_loop(pts, 3, 12)[0])


def test_sq_dists_batches_centroid_sets():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(30, 4))
    sq = (points * points).sum(axis=1)
    sets = rng.normal(size=(3, 5, 4))
    batched = _sq_dists(points, sq, sets)
    assert batched.shape == (30, 3, 5)
    for r in range(3):
        np.testing.assert_array_equal(batched[:, r], _sq_dists(points, sq, sets[r]))


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


def assert_seeds_match_subtraction_form(pts, k, seed):
    """All restarts seeded together pick, per restart rng, the rows a lone
    subtraction-form seeding picks from the same rng."""
    rngs = [np.random.default_rng((seed, r)) for r in range(KMEANS_RESTARTS)]
    seeds = _kmeans_pp_init(pts, k, rngs)
    assert seeds.shape == (KMEANS_RESTARTS, k, pts.shape[1])
    for r in range(KMEANS_RESTARTS):
        picks = subtraction_pp_picks(pts, k, np.random.default_rng((seed, r)))
        np.testing.assert_array_equal(seeds[r], pts[picks])
    return seeds


class TestKmeansPlusPlusInit:
    def test_matches_subtraction_form_on_duplicates(self):
        # 3 distinct rows, 4 copies each: once all 3 are picked no mass is
        # left, so the remaining picks take the uniform fallback
        rng = np.random.default_rng(8)
        distinct = rng.normal(size=(3, 7)) * np.array([[0.3], [1.0], [40.0]])
        pts = distinct[rng.permutation(np.repeat(np.arange(3), 4))]
        for seed in range(3):
            seeds = assert_seeds_match_subtraction_form(pts, 6, seed)
            for init in seeds:
                assert len({tuple(row) for row in init[:3]}) == 3

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_subtraction_form_on_blobs(self, seed):
        pts, _ = clustered_rows([30, 25, 40, 15], dim=6, seed=seed, noise=0.3)
        assert_seeds_match_subtraction_form(pts, 7, seed)

    def test_k_equal_to_n_picks_every_row(self):
        # each pick takes a row not picked yet until none is left
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(9, 4))
        seeds = assert_seeds_match_subtraction_form(pts, 9, seed=2)
        for init in seeds:
            assert len({tuple(row) for row in init}) == 9

    def test_each_rng_draws_as_a_lone_seeding(self):
        # seeding restarts together leaves every rng where seeding it alone does
        pts, _ = clustered_rows([10, 12], dim=3, seed=4)
        together = [np.random.default_rng((6, r)) for r in range(4)]
        _kmeans_pp_init(pts, 5, together)
        for r, rng in enumerate(together):
            alone = np.random.default_rng((6, r))
            _kmeans_pp_init(pts, 5, [alone])
            assert rng.integers(1 << 62) == alone.integers(1 << 62)


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

    @pytest.mark.parametrize("case", [
        "blocks", "noisy_gram", "permuted", "zero_degree", "one_cluster", "disconnected",
    ])
    def test_precomputed_spectrum_gives_the_same_partition(self, case):
        # the regimes of the tests above, as the averaged kernels of feature
        # sets: each clustered once on its own and once from the holder made
        # for its features, which its Laplacian spectrum was computed into
        b = np.random.default_rng(3).normal(size=(2, 14, 6))
        perm = np.random.default_rng(5).permutation(15)
        rows, h, seed = {
            "blocks": (block_rows([5, 7, 6], seed=1), 3, 0),
            "noisy_gram": (b, 4, 9),
            "permuted": (block_rows([5, 6, 4], seed=4)[:, perm], 3, 2),
            "zero_degree": (np.pad(block_rows([5]), ((0, 0), (0, 1), (0, 0))), 2, 0),
            "one_cluster": (block_rows([4, 4], seed=0), 1, 0),
            "disconnected": (np.zeros((2, 4, 3)), 2, 0),
        }[case]
        spectra = KernelSpectra(feats_from_blocks(rows))
        k = spectra.kbar()
        spectra.laplacian(k)
        if case == "disconnected":
            with pytest.raises(DisconnectedDegenerate):
                spectral_cluster(k, h, seed, spectra)
            return
        alone = spectral_cluster(k, h, seed)
        shared = spectral_cluster(k, h, seed, spectra)
        np.testing.assert_array_equal(shared.assignments, alone.assignments)
        assert index_sets(shared) == index_sets(alone)


class TestKernelSpectra:
    @staticmethod
    def counted_sym_eig(monkeypatch):
        calls = []

        def counting(matrix):
            calls.append(matrix.shape)
            return sym_eig(matrix)

        monkeypatch.setattr(cluster, "sym_eig", counting)
        return calls

    @staticmethod
    def holder(seed=2, shape=(3, 9, 7)):
        return KernelSpectra(feats_from_blocks(np.random.default_rng(seed).normal(size=shape)))

    def test_kbar_is_formed_anew_on_every_call(self):
        spectra = self.holder()
        expected = average_kernel(build_stack(spectra.feats))
        first, second = spectra.kbar(), spectra.kbar()
        assert not np.shares_memory(first, second)
        for k in (first, second):
            assert k.tobytes() == expected.tobytes()
            assert k.flags.writeable

    def test_equal_bytes_decompose_once(self, monkeypatch):
        calls = self.counted_sym_eig(monkeypatch)
        spectra = self.holder()
        first = spectra.eig(spectra.kbar())
        lap = spectra.laplacian(spectra.kbar())
        assert len(calls) == 2
        # every caller forms its own kbar, a new array with the same bytes
        assert spectra.eig(spectra.kbar()) is first
        assert spectra.laplacian(spectra.kbar()) is lap
        assert len(calls) == 2

    def test_kernel_that_is_not_n_by_n_is_refused(self, monkeypatch):
        calls = self.counted_sym_eig(monkeypatch)
        spectra = self.holder()
        k = spectra.kbar()
        for wrong in (k[:-1, :-1], k[:, :-1], np.pad(k, 1)):
            with pytest.raises(InputError, match="must be 9 x 9"):
                spectra.eig(wrong)
            with pytest.raises(InputError, match="must be 9 x 9"):
                spectra.laplacian(wrong)
        assert calls == []

    def test_held_arrays_are_read_only(self):
        spectra = self.holder()
        with pytest.raises(ValueError):
            spectra.eig(spectra.kbar()).vectors[0, 0] = 1.0
        lap = spectra.laplacian(spectra.kbar())
        for arr in (lap.isolated, lap.connected, lap.eig.values, lap.eig.vectors):
            assert not arr.flags.writeable

    def test_holder_is_made_for_one_feature_set(self):
        feats = self.holder().feats
        fresh = KernelSpectra.for_features(feats)
        assert fresh.feats is feats
        assert KernelSpectra.for_features(feats, fresh) is fresh
        # other features are refused even with the same bytes
        for other in (self.holder(3).feats, dataclasses.replace(feats)):
            with pytest.raises(InputError):
                KernelSpectra.for_features(other, fresh)

    @staticmethod
    def run_threads(work, count=8):
        # more threads than cores, switching as often as the interpreter can
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(count)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)

    def test_threads_share_one_decomposition(self, monkeypatch):
        calls = self.counted_sym_eig(monkeypatch)
        spectra = self.holder(5, (2, 12, 10))
        got = []
        self.run_threads(lambda i: got.append(spectra.eig(spectra.kbar())))
        assert len(calls) == 1
        assert len(got) == 8 and all(g is got[0] for g in got)

    @staticmethod
    def counted_row_coordinates(monkeypatch):
        calls = []

        def counting(per_class):
            calls.append(per_class.shape)
            return row_coordinates(per_class)

        monkeypatch.setattr(cluster, "row_coordinates", counting)
        return calls

    def test_coordinates_are_held_read_only(self, monkeypatch):
        calls = self.counted_row_coordinates(monkeypatch)
        spectra = self.holder(1, (3, 12, 7))
        coords = spectra.coordinates()
        np.testing.assert_array_equal(coords, row_coordinates(spectra.feats.per_class))
        assert spectra.coordinates() is coords
        assert len(calls) == 1
        assert not coords.flags.writeable
        with pytest.raises(ValueError):
            coords[0, 0] = 1.0

    def test_threads_share_one_factorization(self, monkeypatch):
        calls = self.counted_row_coordinates(monkeypatch)
        spectra = self.holder(4, (4, 40, 30))
        got = []
        self.run_threads(lambda i: got.append(spectra.coordinates()))
        assert len(calls) == 1
        assert len(got) == 8 and all(g is got[0] for g in got)


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
