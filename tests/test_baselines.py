import numpy as np
import pytest
from helpers import (
    clustered_rows,
    feats_from_blocks,
    flatten_rows,
    fps_subtraction,
    row_coordinates,
)

from dntk.baselines import (
    select_fps,
    select_kmeans,
    select_leverage,
    select_random,
)
from dntk.cluster import KernelSpectra
from dntk.errors import EmptyInput, STooLarge


def check_valid(result, m, s):
    assert result.indices.size == s
    assert len(set(result.indices.tolist())) == s
    assert result.indices.min() >= 0 and result.indices.max() < m


class TestRandom:
    def test_full_budget_all_indices(self):
        r = select_random(7, 7, seed=0)
        assert sorted(r.indices.tolist()) == list(range(7))

    def test_deterministic(self):
        np.testing.assert_array_equal(select_random(20, 5, seed=3).indices,
                                      select_random(20, 5, seed=3).indices)

    def test_valid_subset(self):
        check_valid(select_random(15, 6, seed=1), 15, 6)

    def test_budget_errors(self):
        with pytest.raises(STooLarge):
            select_random(4, 5, seed=0)
        with pytest.raises(STooLarge):
            select_random(4, 0, seed=0)
        with pytest.raises(EmptyInput):
            select_random(0, 1, seed=0)


class TestLeverage:
    def test_rank_one_concentrated(self):
        v = np.zeros(6)
        v[0] = 1.0
        k = np.outer(v, v)
        r = select_leverage(k, 1, r=1, seed=0)
        assert r.indices.tolist() == [0]

    def test_scores_sum_to_rank(self):
        rng = np.random.default_rng(2)
        b = rng.normal(size=(10, 10))
        k = b @ b.T
        r = select_leverage(k, 4, r=3, seed=0)
        assert r.scores is not None
        assert r.scores.sum() == pytest.approx(3.0)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(12, 6))
        k = b @ b.T
        a = select_leverage(k, 5, r=4, seed=9)
        c = select_leverage(k, 5, r=4, seed=9)
        np.testing.assert_array_equal(a.indices, c.indices)

    def test_rank_deficient_tops_up_uniformly(self):
        # rank-1 kernel but s=3: only one positive-score row, rest topped up
        v = np.zeros(5)
        v[2] = 2.0
        k = np.outer(v, v)
        r = select_leverage(k, 3, r=2, seed=1)
        check_valid(r, 5, 3)
        assert 2 in r.indices.tolist()

    def test_valid_subset(self):
        rng = np.random.default_rng(4)
        b = rng.normal(size=(9, 5))
        check_valid(select_leverage(b @ b.T, 4, r=3, seed=2), 9, 4)

    def test_shared_spectra_select_the_same(self):
        rng = np.random.default_rng(5)
        spectra = KernelSpectra(feats_from_blocks(rng.normal(size=(2, 12, 6))))
        k = spectra.kbar()
        for s in (3, 5, 8):
            alone = select_leverage(k, s, r=s, seed=s)
            shared = select_leverage(spectra.kbar(), s, r=s, seed=s, spectra=spectra)
            np.testing.assert_array_equal(shared.indices, alone.indices)
            np.testing.assert_array_equal(shared.scores, alone.scores)


class TestFps:
    def test_first_pick_is_max_norm(self):
        rows = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 2.0]])
        r = select_fps(rows, 1)
        assert r.indices.tolist() == [1]

    def test_greedy_max_min_oracle(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(14, 4))
        r = select_fps(rows, 6)
        chosen = list(r.indices)
        # replay: each pick must maximize the min distance to prior picks
        for t in range(1, 6):
            prior = chosen[:t]
            dist = np.full(14, np.inf)
            for p in prior:
                d = ((rows - rows[p]) ** 2).sum(axis=1)
                dist = np.minimum(dist, d)
            dist[prior] = -np.inf
            assert dist[chosen[t]] == pytest.approx(dist.max())

    def test_selection_order_preserved(self):
        rows, _ = clustered_rows([4, 4, 4], dim=6, seed=6)
        r = select_fps(rows, 3)
        # first index is the max-norm row, not necessarily the smallest index
        assert r.indices.size == 3
        assert len(set(r.indices.tolist())) == 3

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(10, 3))
        np.testing.assert_array_equal(select_fps(rows, 4).indices,
                                      select_fps(rows, 4).indices)

    def test_tie_breaks_lowest_index(self):
        rows = np.array([[2.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        r = select_fps(rows, 2)
        assert r.indices[0] == 0  # duplicate max norms: lowest index wins

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_subtraction_form_on_random_rows(self, seed):
        rng = np.random.default_rng(40 + seed)
        rows = rng.normal(size=(60, 9)) * rng.uniform(0.01, 100.0, size=(60, 1))
        for s in (1, 2, 17, 60):
            np.testing.assert_array_equal(select_fps(rows, s).indices,
                                          fps_subtraction(rows, s))

    def test_matches_subtraction_form_on_duplicate_rows(self):
        # 6 distinct rows, 5 copies each: s = 6 picks each distinct row once,
        # after which every distance is exactly 0 and the lowest index wins
        rng = np.random.default_rng(44)
        distinct = rng.normal(size=(6, 5)) * np.array([[0.1], [1.0], [3.0], [7.0], [20.0], [0.5]])
        rows = distinct[rng.permutation(np.repeat(np.arange(6), 5))]
        for s in (3, 6, 7, 30):
            picks = select_fps(rows, s).indices
            np.testing.assert_array_equal(picks, fps_subtraction(rows, s))
        picks = select_fps(rows, 6).indices
        assert len({tuple(rows[i]) for i in picks}) == 6

    def test_spread_across_clusters(self):
        rows, assign = clustered_rows([5, 5, 5], dim=8, seed=8, noise=0.02)
        r = select_fps(rows, 3)
        assert len(set(assign[r.indices].tolist())) == 3


class TestKmeansSelect:
    def test_full_budget(self):
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(6, 3))
        r = select_kmeans(rows, 6, seed=0)
        assert sorted(r.indices.tolist()) == list(range(6))

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        rows = rng.normal(size=(12, 4))
        np.testing.assert_array_equal(select_kmeans(rows, 4, seed=5).indices,
                                      select_kmeans(rows, 4, seed=5).indices)

    def test_picks_one_per_obvious_cluster(self):
        rows, assign = clustered_rows([6, 6, 6], dim=6, seed=11, noise=0.02)
        r = select_kmeans(rows, 3, seed=0)
        assert len(set(assign[r.indices].tolist())) == 3

    def test_duplicate_points_still_distinct_indices(self):
        rows = np.zeros((5, 2))
        r = select_kmeans(rows, 3, seed=1)
        check_valid(r, 5, 3)

    @pytest.mark.parametrize("m,d", [(30, 80), (40, 6)])
    def test_invariant_under_rotation(self, m, d):
        # only pairwise distances matter, so rotated rows select the same set
        rng = np.random.default_rng(m + d)
        rows = rng.normal(size=(m, d))
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        for s in (3, 7, 12):
            np.testing.assert_array_equal(
                select_kmeans(row_coordinates((rows @ q)[None]), s, seed=s).indices,
                select_kmeans(row_coordinates(rows[None]), s, seed=s).indices)

    def test_two_member_tie_picks_lower_index(self):
        # pairs c ± v: each centroid is equidistant from both members, up to
        # roundoff, which must not decide the pick
        rng = np.random.default_rng(21)
        pairs = 8
        centers = 100.0 * rng.normal(size=(pairs, 5))
        offsets = rng.uniform(0.5, 2.0, size=(pairs, 5))
        rows = np.concatenate([centers + offsets, centers - offsets])
        perm = rng.permutation(2 * pairs)
        rows, pair_of = rows[perm], perm % pairs
        lowest = {int(np.flatnonzero(pair_of == p)[0]) for p in range(pairs)}
        r = select_kmeans(rows, pairs, seed=4)
        assert set(r.indices.tolist()) == lowest


class TestRowCoordinates:
    @pytest.mark.parametrize("c,m,d", [(3, 40, 30), (2, 25, 4)])
    def test_keep_pairwise_distances(self, c, m, d):
        per_class = np.random.default_rng(c + m + d).normal(size=(c, m, d))
        flat = flatten_rows(per_class)
        coords = row_coordinates(per_class)
        assert coords.shape == (m, min(m, c * d))
        gram = flat @ flat.T
        np.testing.assert_allclose(coords @ coords.T, gram, atol=1e-10 * np.abs(gram).max())

    @pytest.mark.parametrize("seed", range(4))
    def test_fps_picks_the_same_rows(self, seed):
        per_class = np.random.default_rng(seed).normal(size=(4, 60, 45))
        for s in (5, 10, 25):
            np.testing.assert_array_equal(select_fps(row_coordinates(per_class), s).indices,
                                          select_fps(flatten_rows(per_class), s).indices)


class TestEigenCoordinates:
    """fps and k-means on the held kbar's eigen-coordinates pick what they
    pick on the QR coordinates of the flattened rows."""

    CASES = {
        "wide": lambda rng: rng.normal(size=(4, 50, 30)),
        # C * k = 20 < n = 60: kbar has rank 20
        "rank_deficient": lambda rng: rng.normal(size=(2, 60, 10)),
        # rows 0-9 repeated exactly at 40-49
        "duplicates": lambda rng: rng.normal(size=(3, 40, 12))[:, [*range(40), *range(10)]],
        "clustered": lambda rng: np.stack(
            [clustered_rows([12, 15, 13], dim=8, seed=c, noise=0.05)[0] for c in range(3)]),
    }

    @classmethod
    def case(cls, name, seed):
        """Both coordinates of a case's rows, and each row's lowest-index
        exact copy: which of two equal rows a pick lands on is roundoff in
        any coordinates but the rows themselves, so picks compare as copies."""
        per_class = cls.CASES[name](np.random.default_rng(seed))
        _, first, inverse = np.unique(flatten_rows(per_class), axis=0,
                                      return_index=True, return_inverse=True)
        return (KernelSpectra(feats_from_blocks(per_class)).coordinates(),
                row_coordinates(per_class), first[inverse.ravel()])

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_fps_picks_the_same_rows(self, name):
        eig_coords, qr_coords, copy = self.case(name, 31)
        for s in (3, 10, 25):
            np.testing.assert_array_equal(copy[select_fps(eig_coords, s).indices],
                                          copy[select_fps(qr_coords, s).indices])

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_kmeans_picks_the_same_rows(self, name):
        eig_coords, qr_coords, copy = self.case(name, 32)
        for s in (3, 10, 25):
            np.testing.assert_array_equal(copy[select_kmeans(eig_coords, s, seed=s).indices],
                                          copy[select_kmeans(qr_coords, s, seed=s).indices])

    def test_fps_ties_break_to_the_lowest_index(self):
        # a copy at 40-49 ties its original at 0-9 only up to roundoff in
        # the eigen-coordinates; the original wins, and a copy comes only
        # once every distinct row is picked, the lowest copy first
        eig_coords, _, _ = self.case("duplicates", 31)
        for s in (3, 10, 25, 40):
            assert select_fps(eig_coords, s).indices.max() < 40
        assert list(select_fps(eig_coords, 45).indices[40:]) == [40, 41, 42, 43, 44]

    def test_no_row_is_picked_twice(self):
        # the 40 distinct rows of 50 are each picked once before any copy
        eig_coords, _, copy = self.case("duplicates", 33)
        assert sorted(copy[select_fps(eig_coords, 40).indices]) == list(range(40))


class TestFlattenRows:
    def test_concatenates_class_slices(self):
        per_class = np.arange(2 * 3 * 4, dtype=np.float64).reshape(2, 3, 4)
        flat = flatten_rows(per_class)
        assert flat.shape == (3, 8)
        np.testing.assert_array_equal(flat[1, :4], per_class[0, 1])
        np.testing.assert_array_equal(flat[1, 4:], per_class[1, 1])
