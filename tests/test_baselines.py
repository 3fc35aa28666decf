import numpy as np
import pytest
from helpers import clustered_rows

from dntk.baselines import (
    flatten_rows,
    select_fps,
    select_kmeans,
    select_leverage,
    select_random,
)
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
            np.testing.assert_array_equal(select_kmeans(rows @ q, s, seed=s).indices,
                                          select_kmeans(rows, s, seed=s).indices)

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


class TestFlattenRows:
    def test_concatenates_class_slices(self):
        per_class = np.arange(2 * 3 * 4, dtype=np.float64).reshape(2, 3, 4)
        flat = flatten_rows(per_class)
        assert flat.shape == (3, 8)
        np.testing.assert_array_equal(flat[1, :4], per_class[0, 1])
        np.testing.assert_array_equal(flat[1, 4:], per_class[1, 1])
