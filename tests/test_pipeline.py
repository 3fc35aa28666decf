"""Orchestration-layer tests: seeding, task prep, method rows, sweeps."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from helpers import (
    N_AROUND_ROW_BATCH,
    feats_from_blocks,
    fused_sketch_per_batch,
    orthonormal_rows_basis,
    traced_peak,
)
from numpy.testing import assert_allclose, assert_array_equal

from dntk import cluster, distill, kernel, krr, metrics, pipeline, sketch
from dntk.baselines import select_random
from dntk.errors import DimMismatch, EmptyInput, InputError, InsufficientMemory, ShapeMismatch
from dntk.io import RunConfig, read_gradients, write_gradients
from dntk.numerics import sym_eig
from dntk.sketch import COL_BLOCK, SketchRecord, project_features, sample_orthonormal
from dntk.tangent import ROW_BATCH, extract_features, init_params, layer_factors


def tiny_cfg(**overrides):
    base = dict(
        seed=5,
        layer_sizes=[4, 10, 3],
        n_train=18,
        n_test=9,
        spread=0.4,
        train_lr=0.05,
        train_epochs=8,
        train_batch=6,
        k_sketch=12,
        h=3,
        tau_v=0.9,
        tau_g=0.5,
        lambda_reg=1e-4,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestDeriveSeed:
    def test_deterministic(self):
        assert pipeline.derive_seed(7, "train") == pipeline.derive_seed(7, "train")

    def test_stage_and_index_matter(self):
        seeds = {
            pipeline.derive_seed(7, "train"),
            pipeline.derive_seed(7, "sketch"),
            pipeline.derive_seed(7, "train", 1),
            pipeline.derive_seed(8, "train"),
        }
        assert len(seeds) == 4

    def test_fits_in_63_bits(self):
        for i in range(50):
            s = pipeline.derive_seed(i, "x", i)
            assert 0 <= s < 2**63


class TestSplitMixture:
    def test_sizes_and_class_balance(self):
        cfg = tiny_cfg()
        train, test = pipeline.split_mixture(cfg, seed=3)
        assert train.inputs.shape == (18, 4)
        assert test.inputs.shape == (9, 4)
        for ci in range(3):
            assert np.sum(train.labels == ci) == 6
            assert np.sum(test.labels == ci) == 3

    def test_halves_share_class_means(self):
        # both splits come from one generator call, so per-class sample
        # means should agree to within the sampling noise of the spread
        cfg = tiny_cfg(n_train=300, n_test=300, spread=0.05)
        train, test = pipeline.split_mixture(cfg, seed=11)
        for ci in range(3):
            mu_tr = train.inputs[train.labels == ci].mean(axis=0)
            mu_te = test.inputs[test.labels == ci].mean(axis=0)
            assert np.linalg.norm(mu_tr - mu_te) < 0.1

    def test_disjoint_from_distinct_seeds(self):
        cfg = tiny_cfg()
        a, _ = pipeline.split_mixture(cfg, seed=1)
        b, _ = pipeline.split_mixture(cfg, seed=2)
        assert not np.allclose(a.inputs, b.inputs)


class TestSketchWidth:
    def test_explicit_k_clamped_to_param_count(self):
        cfg = tiny_cfg(k_sketch=10_000)
        assert pipeline.sketch_width(cfg, 83) == 83

    def test_explicit_k_passthrough(self):
        cfg = tiny_cfg(k_sketch=12)
        assert pipeline.sketch_width(cfg, 83) == 12

    def test_default_uses_jl_rule(self):
        from dntk.sketch import jl_dimension

        cfg = tiny_cfg(k_sketch=None, eps_jl=0.5)
        expect = min(jl_dimension(cfg.n_train, 0.5), 10_000)
        assert pipeline.sketch_width(cfg, 10_000) == expect


class TestPrepareTask:
    def test_fused_sketch_matches_two_step(self):
        cfg = tiny_cfg()
        task = pipeline.prepare_task(cfg, root_seed=5)
        raw = extract_features(task.model, task.train.inputs, task.train.labels)
        two_step = project_features(raw, sample_orthonormal(**vars(task.sketch_op)))
        # both contract the same factors in the same row batches
        assert_array_equal(task.train_feats.per_class, two_step.per_class)
        assert_array_equal(task.train_feats.model_logits, two_step.model_logits)

    @pytest.mark.parametrize(
        "sizes, activation",
        [
            ([4, 24, 3], "tanh"),  # 2 weight layers
            ([5, 9, 7, 6, 4], "relu"),  # 4 weight layers
            ([3, 8, 12, 5], "tanh"),  # 3 weight layers
        ],
    )
    def test_fused_sketch_matches_two_step_around_row_batch(self, sizes, activation):
        rng = np.random.default_rng(len(sizes))
        params = init_params(sizes, seed=len(sizes), activation=activation)
        # nonzero biases so relu units sit on both sides of the kink
        params = params.with_theta(params.theta + 0.3 * rng.normal(size=params.param_count))
        # one narrow column block, and an odd width over three blocks whose
        # last holds one column
        for k in (9, 2 * COL_BLOCK + 1):
            op = sample_orthonormal(params.param_count, k, seed=len(sizes))
            for n in N_AROUND_ROW_BATCH:  # first or last batch may be partial
                x = rng.normal(size=(n, sizes[0]))
                labels = rng.integers(0, sizes[-1], size=n)
                fused = pipeline.sketched_features(params, x, labels, op)
                # the shared workspace keeps every product's shape and summation order
                assert_array_equal(fused.per_class, fused_sketch_per_batch(params, x, op))
                # both contract the same factors in the same row and column blocks
                two_step = project_features(extract_features(params, x, labels), op)
                assert_array_equal(fused.per_class, two_step.per_class)
                assert not fused.raw and not two_step.raw
                assert_array_equal(fused.labels, two_step.labels)
                assert_array_equal(fused.model_logits, two_step.model_logits)

    def test_fused_sketch_peak_memory_is_output_and_workspace(self):
        # uneven fan-outs: a fresh T block per layer, made while the previous
        # one is still held, would add most of a second widest block
        sizes, n, k = [8, 40, 30, 5], 8 * ROW_BATCH, 256
        params = init_params(sizes, seed=23)
        rng = np.random.default_rng(24)
        x = rng.normal(size=(n, sizes[0]))
        labels = rng.integers(0, sizes[-1], size=n)
        op = sample_orthonormal(params.param_count, k, seed=25)
        # in one call, and in two through the live backward pass's ClassRows
        for run in (lambda: pipeline.sketched_features(params, x, labels, op),
                    lambda: project_features(extract_features(params, x, labels), op)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.1 * sketch.sketch_bytes(sizes, n, k)

    def test_sketch_bytes_counts_output_one_batch_of_factors_and_workspace(self, tmp_path):
        # [8, 40, 30, 5]: one row's factors are 5 * (40 + 30 + 5) dz and
        # 8 + 40 + 30 a floats, 453 in all; the T block is 40 = max(fan_out)
        # rows of a ROW_BATCH x COL_BLOCK block, beside two (ROW_BATCH, 5,
        # COL_BLOCK) blocks
        sizes, n, k = [8, 40, 30, 5], 100, 2 * COL_BLOCK + 1
        assert ROW_BATCH == 32 and COL_BLOCK == 64
        assert sketch.sketch_bytes(sizes, n, k) == 8 * (5 * n * k + 32 * (453 + (40 + 10) * 64))
        # below one batch and one block, both shrink to what is there
        assert sketch.sketch_bytes(sizes, 5, 9) == 8 * (5 * 5 * 9 + 5 * (453 + (40 + 10) * 9))
        # the factors counted are the batch either source hands the sketch:
        # the live backward pass and a raw file
        params = init_params(sizes, seed=23)
        x = np.random.default_rng(24).normal(size=(n, sizes[0]))
        live = extract_features(params, x, np.zeros(n, dtype=int))
        write_gradients(live, tmp_path / "g.dntk")
        for rows in (live.per_class, read_gradients(tmp_path / "g.dntk").per_class):
            first = next(rows.batches())
            assert sum(dz.nbytes + a.nbytes for dz, a in layer_factors(first)) == 8 * 32 * 453

    def test_fused_sketch_workspace_does_not_grow_with_k(self):
        # what the call holds beyond its output, at k and at 4k: the
        # workspace is COL_BLOCK columns wide whatever k is
        sizes, n, k = [8, 40, 30, 5], 4 * ROW_BATCH, 2 * COL_BLOCK + 1
        params = init_params(sizes, seed=23)
        rng = np.random.default_rng(24)
        x = rng.normal(size=(n, sizes[0]))
        labels = rng.integers(0, sizes[-1], size=n)

        def above_output(width):
            op = sample_orthonormal(params.param_count, width, seed=25)
            feats = []
            peak = traced_peak(
                lambda: feats.append(pipeline.sketched_features(params, x, labels, op)))
            return peak - feats[0].per_class.nbytes

        held = sketch.sketch_bytes(sizes, n, k) - 8 * sizes[-1] * n * k
        assert abs(above_output(4 * k) - above_output(k)) < 0.1 * held

    def test_fused_sketch_refuses_an_output_larger_than_free_memory(self, monkeypatch):
        sizes, n, k = [4, 6, 3], 40, 5
        params = init_params(sizes, seed=1)
        op = sample_orthonormal(params.param_count, k, seed=2)
        rng = np.random.default_rng(3)
        x, labels = rng.normal(size=(n, sizes[0])), rng.integers(0, sizes[-1], size=n)
        need = sketch.sketch_bytes(sizes, n, k)
        monkeypatch.setattr(sketch, "available_memory", lambda: need - 1)
        with pytest.raises(InsufficientMemory,
                           match=f"sketching {n} rows to 3 x {k} needs {need} bytes"):
            pipeline.sketched_features(params, x, labels, op)
        monkeypatch.setattr(sketch, "available_memory", lambda: need)
        assert pipeline.sketched_features(params, x, labels, op).per_class.shape == (3, n, k)

    @pytest.mark.parametrize("path", ["fused", "raw"])
    def test_both_paths_reject_bad_samples(self, path):
        params = init_params([4, 6, 3], seed=1)
        op = sample_orthonormal(params.param_count, 5, seed=2)

        def run(x, labels):
            if path == "fused":
                return pipeline.sketched_features(params, x, labels, op)
            return extract_features(params, x, labels)

        x = np.random.default_rng(3).normal(size=(5, 4))
        with pytest.raises(DimMismatch):
            run(x, np.full(5, 3))  # class id 3, net has 3 classes
        with pytest.raises(ShapeMismatch):
            run(x, np.zeros(5))  # float labels are not class ids
        with pytest.raises(ShapeMismatch):
            run(x, np.zeros(4, dtype=int))  # one label short
        with pytest.raises(EmptyInput):
            run(np.empty((0, 4)), np.empty(0, dtype=int))

    @pytest.mark.parametrize("path", ["fused", "staged"])
    def test_fused_sketch_rejects_foreign_operator(self, path):
        # both paths refuse a sketch of another width through one check
        params = init_params([4, 6, 3], seed=1)
        op = sample_orthonormal(params.param_count + 1, 5, seed=2)
        x = np.random.default_rng(3).normal(size=(5, 4))
        labels = np.zeros(5, dtype=int)
        with pytest.raises(DimMismatch, match=f"width {params.param_count}, sketch expects"):
            if path == "fused":
                pipeline.sketched_features(params, x, labels, op)
            else:
                project_features(extract_features(params, x, labels), op)

    def test_task_keeps_no_sketch_matrix(self, monkeypatch):
        # P = 1803 against 27 samples: the P x 12 sketch would be the task's
        # largest array, while the features it made are 3 x 27 x 12
        draws = []

        def counting(*args, **kwargs):
            draws.append(args)
            return sample_orthonormal(*args, **kwargs)

        monkeypatch.setattr(pipeline, "sample_orthonormal", counting)
        monkeypatch.setattr(sketch, "sample_orthonormal", counting)
        task = pipeline.prepare_task(tiny_cfg(layer_sizes=[5, 200, 3]), root_seed=5)
        p_dim = task.model.param_count
        assert p_dim == 1803 and len(draws) == 1

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif dataclasses.is_dataclass(obj):
                for f in dataclasses.fields(obj):
                    yield from arrays(getattr(obj, f.name))
            elif isinstance(obj, (tuple, list)):
                for item in obj:
                    yield from arrays(item)

        held = [a for a in arrays(task) if a is not task.model.theta]
        assert held and all(p_dim not in a.shape for a in held)
        assert task.sketch_op == SketchRecord(p_dim, 12, pipeline.derive_seed(5, "sketch"))

    def test_deterministic(self):
        cfg = tiny_cfg()
        a = pipeline.prepare_task(cfg, root_seed=5)
        b = pipeline.prepare_task(cfg, root_seed=5)
        assert_array_equal(a.model.theta, b.model.theta)
        assert_array_equal(a.train_feats.per_class, b.train_feats.per_class)

    def test_shapes(self):
        cfg = tiny_cfg()
        task = pipeline.prepare_task(cfg, root_seed=5)
        assert task.train_feats.per_class.shape == (3, 18, 12)
        assert task.test_feats.per_class.shape == (3, 9, 12)

    def test_square_sketch_when_k_reaches_param_count(self):
        # k_sketch >= P clamps to a P x P sketch, an orthogonal matrix, so
        # the sketched kernels equal the raw ones
        task = pipeline.prepare_task(tiny_cfg(k_sketch=10_000), root_seed=5)
        q = sample_orthonormal(**vars(task.sketch_op)).q
        assert q.shape == (83, 83) and task.sketch_op.scale == 1.0
        assert np.abs(q.T @ q - np.eye(83)).max() <= 1e-12
        raw = extract_features(task.model, task.train.inputs, task.train.labels)
        assert_allclose(kernel.build_stack(task.train_feats), kernel.build_stack(raw),
                        rtol=1e-10, atol=1e-13)


@pytest.fixture(scope="module")
def task():
    return pipeline.prepare_task(tiny_cfg(), root_seed=5)


class TestRunMethod:
    def test_full_row(self, task):
        row = pipeline.run_method(task, "full", seed=0)
        assert row.method == "full"
        assert row.s == 18
        assert row.compression == 1.0
        assert 0.0 <= row.accuracy <= 1.0
        assert row.mse >= 0.0

    def test_random_respects_budget(self, task):
        row = pipeline.run_method(task, "random", seed=0, budget=6)
        assert row.s == 6
        assert row.compression == 3.0

    def test_baseline_without_budget_rejected(self, task):
        with pytest.raises(InputError):
            pipeline.run_method(task, "leverage", seed=0)

    def test_unknown_method_rejected(self, task):
        with pytest.raises(InputError):
            pipeline.run_method(task, "oracle", seed=0, budget=4)

    def test_distill_row_uses_config_defaults(self, task):
        row = pipeline.run_method(task, "distill", seed=0)
        assert row.method == "distill"
        assert 1 <= row.s <= 18
        assert 0.0 <= row.coverage <= 1.0 + 1e-9

    def test_label_override(self, task):
        row = pipeline.run_method(task, "random", seed=0, budget=4, label="rnd[tag]")
        assert row.method == "rnd[tag]"

    def test_condition_columns_match_gram_spectrum(self, task):
        # the row reuses the fit's spectra; decomposing each Gram again must
        # agree (s <= k keeps the Grams full rank, so the ratio is stable)
        for budget in (5, 10):
            row = pipeline.run_method(task, "random", seed=2, budget=budget)
            sel = select_random(task.train_feats.size, budget, 2)
            basis = task.train_feats.per_class[:, sel.indices]
            factor = kernel.scale_factor(task.cfg.scale_kind, basis.shape[2])
            pairs = [kernel.conditioning(factor * (phi @ phi.T)) for phi in basis]
            assert row.condition == pytest.approx(np.mean([p[0] for p in pairs]), rel=1e-9)
            assert row.min_eig == pytest.approx(min(p[1] for p in pairs), rel=1e-9)

    @pytest.mark.parametrize("method, budget", [("random", 5), ("full", None)])
    def test_coverage_columns_match_svd_reference(self, task, method, budget):
        # the row takes each class's span from the fit's eigenpairs; the SVD
        # of the set's rows must score the same (full: s > k, rank-deficient)
        row = pipeline.run_method(task, method, seed=3, budget=budget)
        feats = task.train_feats
        idx = select_random(feats.size, budget, 3).indices if budget else np.arange(feats.size)
        ref = np.array([
            metrics.subspace_scores(phi, orthonormal_rows_basis(phi[idx]))
            for phi in feats.per_class
        ]).mean(axis=0)
        energy = np.mean([(phi**2).sum() / phi.shape[0] for phi in feats.per_class])
        assert row.coverage == pytest.approx(ref[0], rel=1e-10)
        assert row.recon_error == pytest.approx(ref[1], rel=1e-8, abs=1e-12 * energy)

    def test_score_rejects_foreign_class_count(self, task):
        # a model of 2 classes, its predictions made on 2 classes of the
        # test rows, is refused the C-class training rows
        feats, test = task.train_feats, task.test_feats
        model = krr.fit(feats.per_class[:2], feats.model_logits[:, :2])
        pred = krr.predict(model, test.per_class[:2])
        with pytest.raises(ShapeMismatch):
            pipeline.score_krr(model, feats, pred, test.labels, test.model_logits[:, :2], "x", 0)

    def test_all_selection_methods_produce_rows(self, task):
        for method in ("random", "leverage", "fps", "kmeans"):
            row = pipeline.run_method(task, method, seed=1, budget=5)
            assert row.s == 5
            assert np.isfinite(row.fidelity)

    @staticmethod
    def every_method(task_for_call, budgets=(4, 8)):
        """full, then the five budgeted methods at each budget, as the
        acceptance run orders them; task_for_call() gives each call's task."""
        rows = [pipeline.run_method(task_for_call(), "full", seed=0)]
        for budget in budgets:
            for method in ("distill", "random", "leverage", "fps", "kmeans"):
                rows.append(pipeline.run_method(task_for_call(), method, seed=budget,
                                                budget=budget))
        return rows

    def test_task_holder_rows_equal_fresh_holder_rows(self, task):
        fresh = self.every_method(
            lambda: dataclasses.replace(task, spectra=cluster.KernelSpectra(task.train_feats)))
        assert self.every_method(lambda: task) == fresh

    def test_task_decomposes_its_kernel_and_rows_once(self, monkeypatch):
        # every call reads the task's holder: kbar's eigensystem, its
        # Laplacian's and the eigen-coordinates are each taken once, where a
        # holder per call would take 6 n x n eigensystems and 4 coordinates
        task = pipeline.prepare_task(tiny_cfg(), root_seed=5)
        n = task.train_feats.size
        eig_shapes, coord_calls = [], []
        eigen_coordinates = cluster.eigen_coordinates

        def counting_eig(matrix):
            eig_shapes.append(np.shape(matrix))
            return sym_eig(matrix)

        def counting_coords(eig):
            coord_calls.append(eig.vectors.shape)
            return eigen_coordinates(eig)

        for module in (cluster, distill):
            monkeypatch.setattr(module, "sym_eig", counting_eig)
        monkeypatch.setattr(cluster, "eigen_coordinates", counting_coords)
        rows = self.every_method(lambda: task)
        assert len(rows) == 11
        assert eig_shapes.count((n, n)) == 2
        assert coord_calls == [(n, n)]

    def test_evaluation_holds_one_class_eigensystem(self):
        # full at C = 10, s = n = 200, D = 16: the (C, s, s) eigenvectors of
        # every class would be 3.2 MB, against the rows' 0.26 MB a split;
        # scored as the fit decomposes each class, the peak stays below them
        c, n, d = 10, 200, 16
        rng = np.random.default_rng(8)
        train = feats_from_blocks(rng.normal(size=(c, n, d)), rng.integers(0, c, n))
        test = feats_from_blocks(rng.normal(size=(c, n, d)), rng.integers(0, c, n))
        task = pipeline.Task(cfg=tiny_cfg(), train=None, test=None, model=None,
                             sketch_op=None, train_feats=train, test_feats=test,
                             spectra=None)
        rows = []
        peak = traced_peak(lambda: rows.append(pipeline.evaluate_gradient_set(
            train.per_class, train.model_logits, task, "full", 0)))
        assert rows[0].s == n
        assert peak < 8 * c * n * n

    def test_holder_made_for_other_features_is_refused(self, task):
        # the holder is made for one training set and knows it by identity:
        # every method that reads it refuses any other, even a copy with the
        # same bytes, rather than hand out decompositions of another kernel
        feats = task.train_feats
        copy = dataclasses.replace(feats, per_class=feats.per_class.copy())
        moved = dataclasses.replace(task, train_feats=copy)
        for method in ("distill", "random", "leverage", "fps", "kmeans"):
            with pytest.raises(InputError, match="other features"):
                pipeline.run_method(moved, method, seed=1, budget=5)
            if method != "distill":
                with pytest.raises(InputError, match="other features"):
                    pipeline.select_baseline(copy, method, 5, 1, task.spectra)
        with pytest.raises(InputError, match="other features"):
            pipeline.distill_features(copy, task.cfg, 1, spectra=task.spectra)
        # full reads no holder; a holder made for the copy serves it
        assert pipeline.run_method(moved, "full", seed=0) == pipeline.run_method(task, "full", 0)
        ok = dataclasses.replace(moved, spectra=cluster.KernelSpectra(copy))
        assert pipeline.run_method(ok, "fps", 1, 5) == pipeline.run_method(task, "fps", 1, 5)


class TestSweep:
    def sweep_cfg(self):
        return tiny_cfg(
            methods=["distill", "random", "full"],
            sweep_h=[2, 3],
            sweep_tau_v=[0.9],
            sweep_tau_g=[0.5],
            sweep_seeds=[5],
        )

    def test_grid_layout(self):
        rows = pipeline.sweep_rows(self.sweep_cfg())
        # 1 full row + 2 grid cells x (distill + random)
        assert len(rows) == 5
        assert rows[0].method == "full"
        assert rows[1].method.startswith("distill[H=2")
        assert rows[2].method.startswith("random[H=2")

    def test_baselines_matched_to_distill_budget(self):
        rows = pipeline.sweep_rows(self.sweep_cfg())
        for dist, rand in ((rows[1], rows[2]), (rows[3], rows[4])):
            assert rand.s == dist.s

    def test_repeat_runs_identical(self):
        a = pipeline.sweep_rows(self.sweep_cfg())
        b = pipeline.sweep_rows(self.sweep_cfg())
        assert a == b

    def test_parallel_matches_serial(self):
        a = pipeline.sweep_rows(self.sweep_cfg())
        b = pipeline.sweep_rows(self.sweep_cfg(), jobs=2)
        assert a == b

    @staticmethod
    def per_cell_rows(cfg, root_seed):
        """The sweep's rows from one run_method call per row, each on a task
        with a fresh KernelSpectra, so each call decomposes kbar itself."""
        derive = pipeline.derive_seed
        task = pipeline.prepare_task(cfg, root_seed)

        def fresh(cell):
            return dataclasses.replace(cell, spectra=cluster.KernelSpectra(cell.train_feats))

        rows = [pipeline.run_method(fresh(task), "full", derive(root_seed, "full"), label="full")]
        for idx, h in enumerate(cfg.sweep_h):
            tag = f"[H={h},tv=0.9,tg=0.5]"
            cell = dataclasses.replace(task, cfg=dataclasses.replace(cfg, h=h))
            dist = pipeline.run_method(
                fresh(cell), "distill", derive(root_seed, "distill", idx), label=f"distill{tag}")
            rows.append(dist)
            for method in ("random", "leverage"):
                rows.append(pipeline.run_method(
                    fresh(cell), method, derive(root_seed, method, idx), budget=dist.s,
                    label=f"{method}{tag}"))
        return rows

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_shared_spectra_rows_equal_per_cell_rows(self, jobs):
        cfg = dataclasses.replace(self.sweep_cfg(), methods=["distill", "random", "leverage"])
        assert pipeline.sweep_rows(cfg, jobs=jobs) == self.per_cell_rows(cfg, 5)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_decomposes_each_root_kernel_once(self, monkeypatch, jobs):
        # n x n eigensystems outside krr (kbar and its Laplacian; every
        # cluster is smaller) are taken once per root seed, not once per
        # cell and method: without sharing, the 2 cells here would take 6
        n = self.sweep_cfg().n_train
        calls = []

        def counting(matrix):
            calls.append(np.shape(matrix))
            return sym_eig(matrix)

        for module in (cluster, distill):
            monkeypatch.setattr(module, "sym_eig", counting)
        cfg = dataclasses.replace(
            self.sweep_cfg(), methods=["distill", "random", "leverage"], sweep_seeds=[5, 6]
        )
        rows = pipeline.sweep_rows(cfg, jobs=jobs)
        assert len(rows) == 2 * (1 + 2 * 3)
        assert calls.count((n, n)) == 2 * 2


class TestTheoryBattery:
    def test_all_checks_pass(self):
        checks = pipeline.theory_battery(seed=0)
        assert [c.name for c in checks] == [
            "surrogate_minimizer_unimprovable",
            "decrease_bound_holds",
            "decrease_bound_tight_at_identity",
            "top_eigenspace_optimal",
            "residual_two_ways_agree",
        ]
        assert all(c.passed for c in checks)

    def test_deterministic(self):
        a = pipeline.theory_battery(seed=3)
        b = pipeline.theory_battery(seed=3)
        assert a == b
