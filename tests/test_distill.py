import dataclasses

import numpy as np
import pytest
from helpers import clustered_rows, feats_from_blocks, orthonormal_rows_basis

from dntk.cluster import KernelSpectra, spectral_cluster
from dntk.distill import (
    GAP,
    LOCAL,
    compression_ratio,
    coverage_coefficients,
    distill,
    gap_directions,
    local_eigensystems,
    synthesize_gap,
    synthesize_local,
    weighted_local_containment,
)
from dntk.errors import BadEps, InputError, RankZeroCluster
from dntk.kernel import average_kernel, build_stack
from dntk.metrics import subspace_scores
from dntk.numerics import sym_eig


def clustered_feats(sizes, dim, seed, classes=1, noise=0.05):
    blocks = [clustered_rows(sizes, dim, seed + 17 * c, noise=noise)[0]
              for c in range(classes)]
    return feats_from_blocks(blocks)


class TestNormIdentity:
    def test_eigenpair_amplitude(self):
        # (lam, u) of (1/D) Phi Phi^T  =>  ||Phi^T u||^2 = D lam
        rng = np.random.default_rng(0)
        phi = rng.normal(size=(10, 24))
        eig = sym_eig(phi @ phi.T / 24.0)
        for j in range(10):
            lam = eig.values[j]
            amp = np.linalg.norm(phi.T @ eig.vectors[:, j]) ** 2
            assert amp == pytest.approx(24.0 * lam, rel=1e-10, abs=1e-12)

    def test_local_candidates_carry_identity(self):
        feats = clustered_feats([6, 6], dim=12, seed=1)
        kbar = average_kernel(build_stack(feats, "inv_k"))
        part = spectral_cluster(kbar, 2, seed=0)
        systems = local_eigensystems(kbar, part, tau_v=1.0)
        lifted, prov, values = synthesize_local(part, systems)
        assert prov.dtype == np.int64 and prov.shape == (lifted.shape[1], 3)
        for col, (kind, h, j) in enumerate(prov):
            assert kind == LOCAL
            lam = systems[h][0].values[j]
            assert values[col] == lam
            amp = np.linalg.norm(lifted[:, col] @ feats.per_class[0]) ** 2
            assert amp == pytest.approx(12.0 * lam, rel=1e-8)


class TestLocalEigensystems:
    def test_block_kernel_matches_blockwise_eig(self):
        feats = clustered_feats([5, 4], dim=10, seed=2)
        kbar = average_kernel(build_stack(feats, "inv_k"))
        part = spectral_cluster(kbar, 2, seed=0)
        systems = local_eigensystems(kbar, part, tau_v=0.99)
        for (eig, r_h), idx in zip(systems, part.index_sets):
            sub = kbar[np.ix_(idx, idx)]
            ref = sym_eig(sub)
            np.testing.assert_allclose(eig.values, ref.values, atol=1e-12)
            assert 1 <= r_h <= idx.size

    def test_zero_cluster_raises(self):
        kbar = np.zeros((4, 4))
        kbar[:2, :2] = np.eye(2)
        part = spectral_cluster(np.eye(4), 4, seed=0)
        with pytest.raises(RankZeroCluster):
            local_eigensystems(kbar, part, tau_v=0.95)


class TestCoverage:
    def test_single_cluster_full_rank_covers_everything(self):
        feats = clustered_feats([8], dim=9, seed=3)
        kbar = average_kernel(build_stack(feats, "inv_k"))
        part = spectral_cluster(kbar, 1, seed=0)
        geig = sym_eig(kbar)
        systems = [(sym_eig(kbar), 8)]  # full local rank
        cov = coverage_coefficients(geig, 4, part, systems)
        np.testing.assert_allclose(cov, np.ones(4), atol=1e-9)

    def test_direction_inside_one_cluster(self):
        # exactly block-diagonal kernel: global eigvecs live inside blocks
        rows, _ = clustered_rows([4, 4], dim=8, seed=4, noise=0.0)
        kbar = rows @ rows.T / 8.0
        part = spectral_cluster(kbar, 2, seed=0)
        geig = sym_eig(kbar)
        systems = local_eigensystems(kbar, part, tau_v=1.0)
        cov = coverage_coefficients(geig, 2, part, systems)
        np.testing.assert_allclose(cov, np.ones(2), atol=1e-9)

    def test_projector_assembly_oracle(self):
        rng = np.random.default_rng(5)
        b = rng.normal(size=(30, 12))
        kbar = b @ b.T / 12.0
        part = spectral_cluster(kbar, 3, seed=1)
        geig = sym_eig(kbar)
        r_g = 6
        systems = local_eigensystems(kbar, part, tau_v=0.9)
        cov = coverage_coefficients(geig, r_g, part, systems)
        for j in range(r_g):
            u_full = geig.vectors[:, j]
            best = 0.0
            for (eig, r_h), idx in zip(systems, part.index_sets):
                u = u_full[idx]
                if u @ u < 1e-24:
                    continue
                proj = eig.vectors[:, :r_h] @ (eig.vectors[:, :r_h].T @ u)
                best = max(best, (proj @ proj) / (u @ u))
            assert cov[j] == pytest.approx(best, abs=1e-12)

    def test_coverage_bounded(self):
        feats = clustered_feats([6, 5, 7], dim=18, seed=6, classes=2)
        _, report = distill(feats, h=3, tau_v=0.95, tau_g=0.5, seed=0)
        assert np.all(report.coverage >= 0.0)
        assert np.all(report.coverage <= 1.0 + 1e-9)


class TestGapDirections:
    def test_frozen_example(self):
        cov = np.array([0.9, 0.4, 0.95])
        gaps = gap_directions(cov, 0.5)
        assert gaps.dtype == np.int64
        np.testing.assert_array_equal(gaps, [1])

    def test_zero_threshold_empty(self):
        gaps = gap_directions(np.array([0.2, 0.0]), 0.0)
        assert gaps.dtype == np.int64 and gaps.shape == (0,)

    def test_top_threshold_catches_all_imperfect(self):
        cov = np.array([0.99, 0.3, 0.7])
        gaps = gap_directions(cov, 1.0)
        assert gaps.dtype == np.int64
        np.testing.assert_array_equal(gaps, [0, 1, 2])

    def test_range_checked(self):
        with pytest.raises(BadEps):
            gap_directions(np.array([0.5]), 1.5)


class TestSynthesizeLocal:
    def test_singleton_cluster_reproduces_row(self):
        feats = clustered_feats([1, 3], dim=6, seed=7)
        kbar = average_kernel(build_stack(feats, "inv_k"))
        part = spectral_cluster(kbar, 2, seed=0)
        systems = local_eigensystems(kbar, part, tau_v=1.0)
        lifted, _, _ = synthesize_local(part, systems)
        singles = np.flatnonzero(lifted.astype(bool).sum(axis=0) == 1)
        assert singles.size
        col = lifted[:, singles[0]]
        i = int(np.flatnonzero(col)[0])
        np.testing.assert_allclose(np.abs(col @ feats.per_class[0]),
                                   np.abs(feats.per_class[0, i]), atol=1e-12)
        np.testing.assert_allclose(np.abs(col @ feats.labels), feats.labels[i],
                                   atol=1e-12)

    def test_two_point_equal_weight_combination(self):
        phi = np.array([[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]])  # identical rows
        feats = feats_from_blocks(phi)
        kbar = average_kernel(build_stack(feats, "inv_k"))
        part = spectral_cluster(np.ones((2, 2)), 1, seed=0)
        systems = local_eigensystems(kbar, part, tau_v=0.9)
        lifted, prov, values = synthesize_local(part, systems)
        assert lifted.shape == (2, 1) and values.shape == (1,)
        assert prov.dtype == np.int64
        np.testing.assert_array_equal(prov, [[LOCAL, 0, 0]])
        expected = (phi[0, 0] + phi[0, 1]) / np.sqrt(2.0)
        np.testing.assert_allclose(np.abs(lifted[:, 0] @ feats.per_class[0]), expected,
                                   atol=1e-12)

    def test_lifted_zero_outside_cluster(self):
        feats = clustered_feats([4, 5], dim=10, seed=8)
        kbar = average_kernel(build_stack(feats, "inv_k"))
        part = spectral_cluster(kbar, 2, seed=0)
        systems = local_eigensystems(kbar, part, tau_v=0.99)
        lifted, prov, _ = synthesize_local(part, systems)
        for col, (_, h, _) in enumerate(prov):
            outside = np.setdiff1d(np.arange(9), part.index_sets[h])
            np.testing.assert_array_equal(lifted[outside, col], 0.0)


class TestSynthesizeGap:
    def test_empty_gap_empty_list(self):
        feats = clustered_feats([4], dim=5, seed=9)
        geig = sym_eig(average_kernel(build_stack(feats, "inv_k")))
        lifted, prov, values = synthesize_gap(geig, np.zeros(0, dtype=np.int64))
        assert lifted.shape == (4, 0) and values.shape == (0,)
        assert prov.dtype == np.int64 and prov.shape == (0, 3)

    def test_rank_one_kernel_regenerates_principal_direction(self):
        rng = np.random.default_rng(10)
        base = rng.normal(size=6)
        weights = rng.uniform(0.5, 2.0, size=5)
        phi = np.outer(weights, base)  # rank 1
        feats = feats_from_blocks(phi[None])
        kbar = average_kernel(build_stack(feats, "inv_k"))
        geig = sym_eig(kbar)
        lifted, prov, values = synthesize_gap(geig, np.array([0]))
        assert lifted.shape == (5, 1)
        assert prov.dtype == np.int64
        np.testing.assert_array_equal(prov, [[GAP, 0, 0]])
        assert values[0] == geig.values[0]
        phi_hat = lifted[:, 0] @ feats.per_class[0]
        # (1/D) Phi phi_hat must reproduce lam * v
        lhs = phi @ phi_hat / 6.0
        rhs = geig.values[0] * geig.vectors[:, 0]
        np.testing.assert_allclose(np.abs(lhs), np.abs(rhs), atol=1e-10)


class TestDistill:
    def test_shared_spectra_give_the_same_set(self):
        # one holder across several H, as a sweep's cells share it
        feats = clustered_feats([7, 5, 8], dim=20, seed=13, classes=3)
        spectra = KernelSpectra(feats)
        for h in (2, 3, 4):
            alone, report = distill(feats, h=h, tau_v=0.99, tau_g=0.7, seed=h)
            shared, shared_report = distill(feats, h=h, tau_v=0.99, tau_g=0.7, seed=h,
                                            spectra=spectra)
            for field in ("phi_hat", "y_hat", "provenance", "lifted_basis", "eigenvalues"):
                np.testing.assert_array_equal(getattr(shared, field), getattr(alone, field))
            np.testing.assert_array_equal(shared_report.coverage, report.coverage)

    def test_holder_made_for_other_features_is_refused(self):
        feats = clustered_feats([7, 5], dim=12, seed=13, classes=2)
        # identity, not bytes: a copy of feats is other features
        for other in (clustered_feats([7, 5], dim=12, seed=14, classes=2),
                      dataclasses.replace(feats)):
            with pytest.raises(InputError, match="other features"):
                distill(feats, h=2, spectra=KernelSpectra(other))

    def test_single_cluster_no_gaps(self):
        feats = clustered_feats([10], dim=11, seed=11)
        dg, report = distill(feats, h=1, tau_v=0.95, tau_g=0.0, seed=0)
        assert report.gap_set.dtype == np.int64 and report.gap_set.shape == (0,)
        assert report.local_ranks.dtype == np.int64
        assert dg.size == report.local_ranks[0]
        assert dg.provenance.dtype == np.int64 and dg.provenance.shape == (dg.size, 3)
        np.testing.assert_array_equal(dg.provenance[:, 0], LOCAL)

    def test_matched_blocks_no_gaps(self):
        feats = clustered_feats([6, 6, 6], dim=18, seed=12, noise=0.02)
        dg, report = distill(feats, h=3, tau_v=0.95, tau_g=0.5, seed=0)
        assert report.gap_set.dtype == np.int64 and report.gap_set.shape == (0,)

    def test_budget_bound(self):
        feats = clustered_feats([7, 5, 8], dim=20, seed=13, classes=3)
        dg, report = distill(feats, h=3, tau_v=0.99, tau_g=0.7, seed=0)
        assert dg.size <= sum(report.local_ranks) + len(report.gap_set)

    def test_lifted_vectors_independent(self):
        feats = clustered_feats([6, 6], dim=15, seed=14, classes=2)
        dg, _ = distill(feats, h=2, tau_v=0.99, tau_g=0.5, seed=0)
        assert np.linalg.matrix_rank(dg.lifted_basis) == dg.size

    def test_distilled_class_kernels_full_rank(self):
        feats = clustered_feats([8, 8], dim=16, seed=15, classes=2)
        dg, _ = distill(feats, h=2, tau_v=0.95, tau_g=0.5, seed=0)
        for c in range(2):
            rows = dg.phi_hat[c]
            gram = rows @ rows.T / 16.0
            assert np.linalg.matrix_rank(gram, tol=1e-10) == dg.size

    def test_deterministic(self):
        feats = clustered_feats([5, 6, 4], dim=15, seed=16, classes=2)
        a, _ = distill(feats, h=3, tau_v=0.95, tau_g=0.5, seed=3)
        b, _ = distill(feats, h=3, tau_v=0.95, tau_g=0.5, seed=3)
        np.testing.assert_array_equal(a.phi_hat, b.phi_hat)
        np.testing.assert_array_equal(a.y_hat, b.y_hat)
        assert a.provenance.dtype == b.provenance.dtype == np.int64
        np.testing.assert_array_equal(a.provenance, b.provenance)

    def test_max_size_keeps_largest_eigenvalues(self):
        feats = clustered_feats([6, 6, 6], dim=18, seed=17)
        full, _ = distill(feats, h=3, tau_v=0.99, tau_g=0.5, seed=0)
        trimmed, _ = distill(feats, h=3, tau_v=0.99, tau_g=0.5, seed=0, max_size=2)
        assert trimmed.size == 2
        kept_min = trimmed.eigenvalues.min()
        dropped = sorted(full.eigenvalues.tolist(), reverse=True)[2:]
        assert all(kept_min >= d - 1e-12 for d in dropped)

    def test_max_size_validation(self):
        feats = clustered_feats([4], dim=5, seed=18)
        with pytest.raises(InputError):
            distill(feats, h=1, max_size=0)

    def test_raising_tau_g_never_shrinks_gap_set(self):
        feats = clustered_feats([6, 5], dim=14, seed=19, classes=2, noise=0.3)
        gaps = []
        for tau_g in (0.2, 0.5, 0.8):
            _, report = distill(feats, h=2, tau_v=0.95, tau_g=tau_g, seed=0)
            gaps.append(set(report.gap_set))
        assert gaps[0] <= gaps[1] <= gaps[2]

    def test_raising_tau_v_never_shrinks_r_global(self):
        feats = clustered_feats([6, 5], dim=14, seed=20, classes=2, noise=0.3)
        ranks = []
        for tau_v in (0.8, 0.95, 0.999):
            _, report = distill(feats, h=2, tau_v=tau_v, tau_g=0.5, seed=0)
            ranks.append(report.r_global)
        assert ranks[0] <= ranks[1] <= ranks[2]

    def test_targets_default_to_logits(self):
        # the targets are the model logits, combined like the gradient rows
        feats = clustered_feats([5], dim=6, seed=21)
        dg, _ = distill(feats, h=1, seed=0)
        np.testing.assert_array_equal(dg.y_hat, dg.lifted_basis.T @ feats.model_logits)
        np.testing.assert_array_equal(dg.phi_hat, dg.lifted_basis.T @ feats.per_class)

    def test_better_than_random_on_planted_low_rank(self):
        # rank-3 row space + noise: distilled basis should capture more
        # variance than the same budget of randomly picked rows
        rng = np.random.default_rng(22)
        basis_rows = rng.normal(size=(3, 20))
        mix = rng.normal(size=(24, 3))
        rows = mix @ basis_rows + 0.01 * rng.normal(size=(24, 20))
        feats = feats_from_blocks(rows[None])
        dg, _ = distill(feats, h=3, tau_v=0.95, tau_g=0.5, seed=0, max_size=3)
        v_dist = orthonormal_rows_basis(dg.phi_hat[0])
        cov_dist = subspace_scores(rows, v_dist, center=False)[0]
        for seed in range(5):
            idx = np.random.default_rng(seed).choice(24, size=dg.size, replace=False)
            v_rand = orthonormal_rows_basis(rows[idx])
            cov_rand = subspace_scores(rows, v_rand, center=False)[0]
            assert cov_dist >= cov_rand - 1e-9


class TestWeightedContainment:
    def test_block_diagonal_fully_contained(self):
        rows, _ = clustered_rows([5, 5], dim=10, seed=23, noise=0.0)
        kbar = rows @ rows.T / 10.0
        part = spectral_cluster(kbar, 2, seed=0)
        systems = local_eigensystems(kbar, part, tau_v=1.0)
        geig = sym_eig(kbar)
        contained = weighted_local_containment(geig, 2, part, systems)
        np.testing.assert_allclose(contained, np.ones(2), atol=1e-9)


class TestCompressionRatio:
    def test_values(self):
        assert compression_ratio(500, 5) == 100.0
        assert compression_ratio(500, 25) == 20.0
        assert compression_ratio(7, 7) == 1.0

    def test_validation(self):
        with pytest.raises(InputError):
            compression_ratio(0, 1)
        with pytest.raises(InputError):
            compression_ratio(5, 0)
