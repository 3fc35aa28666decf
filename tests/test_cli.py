"""End-to-end smoke of the command line front end.

The main fixture walks every stage in order on a tiny task, so each test
inspects the artifacts of a single real run instead of re-running the
chain. Error-path tests get their own scratch directories.
"""

import contextlib
import errno
import gc
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from helpers import traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

import dntk
import dntk.cli
from dntk import cluster, kernel, pipeline
from dntk.cli import FILES, main
from dntk.io import (
    REPORT_COLUMNS,
    read_config,
    read_dataset,
    read_distilled,
    read_gradients,
    read_model,
    read_report,
    read_selection,
)
from dntk.numerics import sym_eig_bytes, sym_eigvals
from dntk.sketch import SketchRecord, orthonormal_bytes, sketch_bytes
from dntk.tangent import ROW_BATCH, extract_features, factor_record, param_count

SMOKE = dict(
    seed=5,
    layer_sizes=[5, 12, 3],
    n_train=24,
    n_test=12,
    spread=0.4,
    train_lr=0.05,
    train_epochs=15,
    train_batch=8,
    k_sketch=16,
    h=3,
    tau_v=0.9,
    tau_g=0.5,
    lambda_reg=1e-4,
)


def write_cfg(path, out_dir, **overrides):
    cfg = dict(SMOKE, out_dir=str(out_dir), **overrides)
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def rundir(tmp_path_factory):
    """Full stage chain on the smoke config; returns (out_dir, cfg_path)."""
    out = tmp_path_factory.mktemp("cli_run")
    cfg = write_cfg(out / "cfg.json", out)
    stages = [
        ["gen-data"],
        ["train-model"],
        ["extract-grads"],
        ["project"],
        ["kernel-stats"],
        ["distill-grads"],
        ["select-baseline", "--method", "random", "--budget", "6"],
        ["fit-krr", "--source", "distilled"],
        ["evaluate", "--method", "distill"],
    ]
    for stage in stages:
        rc = main(stage + ["--config", cfg])
        assert rc == 0, f"stage {stage[0]} exited {rc}"
    return out, cfg


class TestStageChain:
    def test_all_artifacts_exist(self, rundir):
        out, _ = rundir
        for key in (
            "train",
            "test",
            "model",
            "grads_train",
            "grads_test",
            "sketch_meta",
            "sketched_train",
            "sketched_test",
            "kernel_stats",
            "distilled",
            "krr",
            "report",
        ):
            assert (out / FILES[key]).exists(), key
        assert (out / "selected_random.npz").exists()

    def test_staged_setup_equals_prepare_task(self, rundir):
        # gen-data .. project run the stage functions prepare_task runs
        out, cfg_path = rundir
        cfg = read_config(cfg_path)
        task = pipeline.prepare_task(cfg, cfg.seed)
        model = read_model(out / FILES["model"])
        np.testing.assert_array_equal(model.theta, task.model.theta)
        meta = json.loads((out / FILES["sketch_meta"]).read_text())
        assert SketchRecord(**meta) == task.sketch_op
        for key, feats in (("sketched_train", task.train_feats),
                           ("sketched_test", task.test_feats)):
            # project contracts the stored factors as the in-process sketch
            # contracts the live ones, batch for batch: the same bits
            staged = read_gradients(out / FILES[key])
            np.testing.assert_array_equal(staged.per_class, feats.per_class)
            np.testing.assert_array_equal(staged.labels, feats.labels)

    def test_gradient_files_record_their_kind(self, rundir):
        out, _ = rundir
        # header byte 22: 0 for raw rows, 1 for sketched ones
        for key, kind in (("grads_train", 0), ("grads_test", 0),
                          ("sketched_train", 1), ("sketched_test", 1)):
            assert (out / FILES[key]).read_bytes()[22] == kind, key

    def test_kernel_stats_csv(self, rundir):
        out, cfg_path = rundir
        lines = (out / FILES["kernel_stats"]).read_text().strip().splitlines()
        assert lines[0] == "class,trace,trunc_rank,condition,min_eig,effective_dim"
        assert len(lines) == 1 + 3  # one row per class
        cfg = read_config(cfg_path)
        stack = kernel.build_stack(read_gradients(out / FILES["sketched_train"]), cfg.scale_kind)
        for ci, (line, gram) in enumerate(zip(lines[1:], stack)):
            cells = line.split(",")
            values = sym_eigvals(gram)
            assert int(cells[0]) == ci
            # the class Gram's trace, its rank kept at 1 - tau_v, and its
            # conditioning and effective dimension, each read from its
            # spectrum; 17 digits give every float back exactly
            assert float(cells[1]) > 0
            assert float(cells[1]) == pytest.approx(np.trace(gram), rel=1e-12)
            assert int(cells[2]) == kernel.kept_rank(values, 1.0 - cfg.tau_v)
            assert (float(cells[3]), float(cells[4])) == kernel.spectrum_conditioning(values)
            assert float(cells[5]) == kernel.effective_dimension(values, cfg.lambda_reg)

    def test_kernel_stats_truncates_at_tau_v(self, rundir, tmp_path, capsys):
        # trunc_rank is the rank distill truncates at: 1 - tau_v of the trace
        out, _ = rundir
        work = tmp_path / "run"
        shutil.copytree(out, work)
        cfg = write_cfg(tmp_path / "cfg.json", work, tau_v=0.99)
        assert main(["kernel-stats", "--config", cfg]) == 0
        capsys.readouterr()
        lines = (work / FILES["kernel_stats"]).read_text().strip().splitlines()
        feats = read_gradients(work / FILES["sketched_train"])
        stack = kernel.build_stack(feats, read_config(cfg).scale_kind)
        ranks = [int(line.split(",")[2]) for line in lines[1:]]
        values = [sym_eigvals(k) for k in stack]
        assert ranks == [kernel.kept_rank(v, 1.0 - 0.99) for v in values]
        assert ranks == [kernel.truncation_rank(v, 1.0 - 0.99) for v in values]
        # the 5 % level would give other ranks here, so the level is read
        assert ranks != [kernel.truncation_rank(v, 0.05) for v in values]

    def test_kernel_stats_effective_dim_at_lambda_zero_is_rank(self, rundir, tmp_path, capsys):
        # 24 rows sketched to width 16: each class kernel has rank <= 16, and
        # its roundoff eigenvalues must not count as dimensions
        out, _ = rundir
        work = tmp_path / "run"
        shutil.copytree(out, work)
        cfg = write_cfg(tmp_path / "cfg.json", work, lambda_reg=0.0)
        assert main(["kernel-stats", "--config", cfg]) == 0
        capsys.readouterr()
        lines = (work / FILES["kernel_stats"]).read_text().strip().splitlines()
        dims = [float(line.split(",")[5]) for line in lines[1:]]
        assert len(dims) == 3
        assert all(1 <= d <= 16 for d in dims), dims

    def test_selected_indices_valid(self, rundir):
        out, _ = rundir
        with np.load(out / "selected_random.npz") as z:
            idx = z["indices"]
            assert str(z["method"]) == "random"
        assert idx.shape == (6,)
        assert len(set(idx.tolist())) == 6
        assert idx.min() >= 0 and idx.max() < 24

    def test_report_row(self, rundir):
        out, _ = rundir
        rows = read_report(out / FILES["report"])
        assert len(rows) == 1
        row = rows[0]
        assert row.method == "distill"
        assert row.seed == 5
        assert 1 <= row.s <= 24
        assert row.compression == 24 / row.s
        assert 0.0 <= row.accuracy <= 1.0

    def test_evaluate_appends(self, rundir, capsys):
        out, cfg = rundir
        assert main(["fit-krr", "--source", "random", "--config", cfg]) == 0
        assert main(["evaluate", "--method", "random", "--config", cfg]) == 0
        capsys.readouterr()
        rows = read_report(out / FILES["report"])
        assert [r.method for r in rows] == ["distill", "random"]
        assert rows[1].s == 6

    def test_bare_evaluate_tags_the_set_fit_on(self, rundir, tmp_path, capsys):
        # krr_model.npz records the set it was fit on, so evaluate without
        # --method tags its row with that set, whichever fit came last
        out, _ = rundir
        work = tmp_path / "run"
        shutil.copytree(out, work)
        cfg = write_cfg(tmp_path / "cfg.json", work)
        for source in ("random", "distilled", "full"):
            assert main(["fit-krr", "--source", source, "--config", cfg]) == 0
            assert main(["evaluate", "--config", cfg]) == 0
        capsys.readouterr()
        distilled = read_report(out / FILES["report"])[0]
        rows = read_report(work / FILES["report"])[-3:]
        assert [(r.method, r.s) for r in rows] == [("random", 6), ("distill", distilled.s),
                                                   ("full", 24)]
        assert rows[1] == distilled

    def test_fit_full_source(self, rundir, capsys):
        out, cfg = rundir
        assert main(["fit-krr", "--source", "full", "--config", cfg]) == 0
        capsys.readouterr()
        with np.load(out / FILES["krr"]) as z:
            assert z["basis"].shape == (3, 24, 16)  # (C, s, D)

    @pytest.mark.parametrize(
        "source", ["distilled", "random", "full", "leverage", "fps", "kmeans"]
    )
    def test_evaluate_row_equals_pipeline_row(self, rundir, capsys, source):
        # the staged fit-krr + evaluate must score a set exactly as the
        # in-process pipeline scores the same features and the same set
        out, cfg_path = rundir
        if source not in ("distilled", "full"):
            assert main(["select-baseline", "--method", source, "--budget", "6",
                         "--config", cfg_path]) == 0
        assert main(["fit-krr", "--source", source, "--config", cfg_path]) == 0
        assert main(["evaluate", "--method", source, "--config", cfg_path]) == 0
        capsys.readouterr()
        staged = read_report(out / FILES["report"])[-1]

        cfg = read_config(cfg_path)
        train_feats = read_gradients(out / FILES["sketched_train"])
        model = read_model(out / FILES["model"])
        task = pipeline.Task(
            cfg=cfg,
            model=model,
            sketch_op=SketchRecord(**json.loads((out / FILES["sketch_meta"]).read_text())),
            train_feats=train_feats,
            test_feats=read_gradients(out / FILES["sketched_test"]),
            spectra=cluster.KernelSpectra(train_feats),
        )
        if source == "distilled":
            dg, _ = read_distilled(out / FILES["distilled"])
            basis, targets = dg.phi_hat, dg.y_hat
        elif source == "full":
            basis, targets = train_feats.per_class, train_feats.model_logits
        else:
            # the staged selection is the one pipeline.select_baseline makes
            idx = read_selection(out / f"selected_{source}.npz", train_feats.size, source)
            sel = pipeline.select_baseline(
                train_feats, source, 6, pipeline.derive_seed(cfg.seed, source)
            )
            np.testing.assert_array_equal(idx, sel.indices)
            basis, targets = train_feats.per_class[:, idx], train_feats.model_logits[idx]
        row = pipeline.evaluate_gradient_set(basis, targets, task, source, cfg.seed)
        assert staged == row

    def test_budget_caps_distilled_size(self, rundir, tmp_path, capsys):
        _, cfg = rundir
        out2 = tmp_path / "capped"
        rc = main(["distill-grads", "--config", cfg, "--out", str(out2), "--budget", "2"])
        # needs the sketched features in the new out dir
        assert rc == 1
        cfg2 = write_cfg(tmp_path / "cfg2.json", out2)
        for stage in (["gen-data"], ["train-model"], ["extract-grads"], ["project"]):
            assert main(stage + ["--config", cfg2]) == 0
        assert main(["distill-grads", "--config", cfg2, "--budget", "2"]) == 0
        capsys.readouterr()
        with np.load(out2 / FILES["distilled"]) as z:
            assert z["phi_hat"].shape[1] <= 2  # (C, s, D)


class TestRawPayload:
    def test_extract_grads_writes_the_live_record_batches_as_they_are(self, tmp_path):
        # 69 training rows: two full row batches and a 5-row one
        cfg = write_cfg(tmp_path / "cfg.json", tmp_path, n_train=69)
        for stage in ("gen-data", "train-model", "extract-grads"):
            assert main([stage, "--config", cfg]) == 0
        model = read_model(tmp_path / FILES["model"])
        train = read_dataset(tmp_path / FILES["train"])
        live = list(extract_features(model, train.inputs, train.labels).per_class.batches())
        from_file = list(read_gradients(tmp_path / FILES["grads_train"]).per_class.batches())
        # both sources hand out arrays of the one record dtype tangent states
        assert [b.dtype for b in live + from_file] == [factor_record(model.layer_sizes)] * 6
        assert [len(b) for b in live] == [len(b) for b in from_file] == [32, 32, 5]
        # after the header and the layer widths: the live batches' bytes, in order
        raw = (tmp_path / FILES["grads_train"]).read_bytes()
        at = 23 + 4 * (1 + len(model.layer_sizes))
        payload = b"".join(b.tobytes() for b in live)
        assert raw[at : at + len(payload)] == payload
        assert len(raw) == at + len(payload) + 8 * (69 + 69 * 3)


class TestBoundedMemory:
    def test_extract_and_project_hold_one_class_block(self, tmp_path, capsys):
        # 10 classes x 100 train rows x P = 4810: a raw split is 38 MB, one
        # class block 3.8 MB, its backward-pass factors 0.7 MB. Neither stage
        # holds even one class block: extract-grads holds the factors and
        # the backward pass's temporaries, project q, its output, one row
        # batch of factors and the contraction's blocked workspace
        sizes, n, k = [64, 64, 10], 100, 16
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "cfg.json", out, layer_sizes=sizes, n_train=n, n_test=50,
                        train_epochs=1, k_sketch=k)
        for stage in ("gen-data", "train-model"):
            assert main([stage, "--config", cfg]) == 0

        def stage_peak(stage):
            codes = []
            peak = traced_peak(lambda: codes.append(main([stage, "--config", cfg])))
            assert codes == [0], stage
            return peak

        c, p = sizes[-1], param_count(sizes)
        block = 8 * n * p
        factors = 8 * n * (c * sum(sizes[1:]) + sum(sizes[:-1]))
        extract_bound = 1.25 * 2 * factors
        project_bound = 1.25 * (8 * p * k + sketch_bytes(sizes, n, k))
        assert block > 1.5 * max(extract_bound, project_bound)
        assert stage_peak("extract-grads") <= extract_bound
        assert stage_peak("project") <= project_bound

    def test_evaluate_holds_one_sketched_split(self, tmp_path, capsys):
        # evaluate predicts on the test rows and lets them go before it reads
        # the training rows: both splits at once would be 2 x split alone
        c, n, k = 10, 400, 64
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "cfg.json", out, layer_sizes=[16, 32, c], n_train=n,
                        n_test=n, train_epochs=1, k_sketch=k)
        for stage in (["gen-data"], ["train-model"], ["extract-grads"], ["project"],
                      ["select-baseline", "--method", "random", "--budget", "10"],
                      ["fit-krr", "--source", "random"]):
            assert main(stage + ["--config", cfg]) == 0
        codes = []
        peak = traced_peak(lambda: codes.append(main(["evaluate", "--config", cfg])))
        assert codes == [0]
        assert peak <= 1.6 * 8 * c * n * k


# each stage, the writer of its last output, and its outputs in the order it
# writes them; the stages run on a copy of the chain whose outputs were
# replaced by other bytes, except report.csv, which evaluate reads
LAST_WRITES = [
    (["gen-data"], "write_dataset", ("train", "test")),
    (["train-model"], "write_model", ("model",)),
    (["extract-grads"], "write_gradients", ("grads_train", "grads_test")),
    (["project"], "write_gradients", ("sketch_meta", "sketched_train", "sketched_test")),
    (["kernel-stats"], "write_table", ("kernel_stats",)),
    (["distill-grads"], "write_distilled", ("distilled",)),
    (["select-baseline", "--method", "random", "--budget", "6"], "write_selection",
     ("selected_random",)),
    (["fit-krr", "--source", "distilled"], "write_krr", ("krr",)),
    (["evaluate"], "write_report", ("report",)),
    (["sweep"], "write_report", ("sweep",)),
    (["verify-theory"], "write_table", ("theory",)),
]


@pytest.mark.parametrize("stage, writer, outputs", LAST_WRITES,
                         ids=[stage[0] for stage, _, _ in LAST_WRITES])
def test_full_disk_leaves_the_run_directory_unchanged(
        rundir, tmp_path, capsys, monkeypatch, stage, writer, outputs):
    # the last output is written whole and then the disk is full: the
    # stage's outputs appear together or not at all, so none of them does
    src, _ = rundir
    work = tmp_path / "run"
    shutil.copytree(src, work)
    for key in outputs:
        if key != "report":
            (work / FILES[key]).write_bytes(b"stale\n")
    before = {f.name: f.read_bytes() for f in work.iterdir()}
    cfg = write_cfg(tmp_path / "cfg.json", work, train_epochs=6, methods=["distill", "random"],
                    sweep_h=[2, 3], sweep_tau_v=[0.9], sweep_tau_g=[0.5])
    write, last = getattr(dntk.cli, writer), FILES[outputs[-1]]

    def full_disk(*args):
        write(*args)
        if any(isinstance(a, Path) and a.name == last for a in args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(dntk.cli, writer, full_disk)
    rc = main([*stage, "--config", cfg])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.splitlines().count("error_code=IoError") == 1
    assert err.count("error_code=") == 1
    assert "Traceback" not in err
    assert not any(f.name.startswith(".dntk-") for f in work.iterdir())
    assert {f.name: f.read_bytes() for f in work.iterdir()} == before


def test_directory_in_an_output_place_renames_nothing(rundir, tmp_path, capsys):
    # extract-grads for a retrained model, where grads_train.dntk is a
    # directory: every target is checked before the first rename, so
    # grads_test.dntk (renamed first) keeps its bytes, and the success line
    # is printed only once the outputs are in place, so it is not printed
    src, _ = rundir
    work = tmp_path / "run"
    shutil.copytree(src, work)
    (work / FILES["grads_train"]).unlink()
    (work / FILES["grads_train"]).mkdir()
    cfg = write_cfg(tmp_path / "cfg.json", work, train_epochs=6)
    assert main(["train-model", "--config", cfg]) == 0
    before = (work / FILES["grads_test"]).read_bytes()
    capsys.readouterr()
    rc = main(["extract-grads", "--config", cfg])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.splitlines().count("error_code=IoError") == 1
    assert captured.err.count("error_code=") == 1
    assert "wrote" not in captured.out
    assert (work / FILES["grads_test"]).read_bytes() == before
    assert (work / FILES["grads_train"]).is_dir()
    assert not any(f.name.startswith(".dntk-") for f in work.iterdir())


class TestFreeMemory:
    @staticmethod
    def project_run(src, tmp_path):
        """A run directory holding what `project` reads, and those files' keys."""
        work = tmp_path / "run"
        work.mkdir()
        kept = ("model", "train", "test", "grads_train", "grads_test")
        for key in kept:
            shutil.copy(src / FILES[key], work / FILES[key])
        return work, kept

    @staticmethod
    def sketch_need(src, sizes=SMOKE["layer_sizes"], n=max(SMOKE["n_train"], SMOKE["n_test"])):
        """Bytes of q, and of what `project` holds at its peak: q and its
        orthonormalization, or q and one row batch of the larger split's
        sketch with its workspace, whichever is more."""
        k = SketchRecord(**json.loads((src / FILES["sketch_meta"]).read_text())).target_dim
        p = param_count(sizes)
        return 8 * p * k, max(orthonormal_bytes(p, k),
                              8 * p * k + sketch_bytes(sizes, min(ROW_BATCH, n), k))

    def test_project_refuses_a_sketch_larger_than_free_memory(
            self, rundir, tmp_path, capsys, monkeypatch):
        src, cfg = rundir
        _, need = self.sketch_need(src)
        work, kept = self.project_run(src, tmp_path)

        monkeypatch.setattr(dntk.sketch, "available_memory", lambda: need - 1)
        assert main(["project", "--config", cfg, "--out", str(work)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[0] == "error_code=InsufficientMemory"
        assert err.count("error_code=") == 1
        assert f"needs {need} bytes, {need - 1} bytes of memory are available" in err
        assert sorted(f.name for f in work.iterdir()) == sorted(FILES[key] for key in kept)

        monkeypatch.setattr(dntk.sketch, "available_memory", lambda: need)
        assert main(["project", "--config", cfg, "--out", str(work)]) == 0
        capsys.readouterr()
        for key in ("sketch_meta", "sketched_train", "sketched_test"):
            assert (work / FILES[key]).read_bytes() == (src / FILES[key]).read_bytes()

    def test_project_refuses_an_output_larger_than_free_memory(
            self, rundir, tmp_path, capsys, monkeypatch):
        # room for q but not for the sketch it makes: refused before q is
        # drawn or sketch.json is written, not once the first split is sketched
        src, cfg = rundir
        q, need = self.sketch_need(src)
        work, kept = self.project_run(src, tmp_path)
        monkeypatch.setattr(dntk.sketch, "available_memory", lambda: q)
        assert main(["project", "--config", cfg, "--out", str(work)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[0] == "error_code=InsufficientMemory"
        assert err.count("error_code=") == 1
        assert f"needs {need} bytes, {q} bytes of memory are available" in err
        assert "Traceback" not in err
        assert sorted(f.name for f in work.iterdir()) == sorted(FILES[key] for key in kept)

    def test_project_needs_room_for_one_output_block(self, tmp_path, capsys, monkeypatch):
        # 69 train rows, three row batches: each sketched split streams to
        # its file one (C, 32, k) block at a time, so room for q and one
        # block, less than q and a whole split, writes the same bytes
        sizes, work = SMOKE["layer_sizes"], tmp_path / "run"
        cfg = write_cfg(tmp_path / "cfg.json", work, n_train=69)
        for stage in ("gen-data", "train-model", "extract-grads", "project"):
            assert main([stage, "--config", cfg]) == 0
        unbounded = {key: (work / FILES[key]).read_bytes()
                     for key in ("sketch_meta", "sketched_train", "sketched_test")}
        q, need = self.sketch_need(work, sizes, 69)
        assert need < q + sketch_bytes(sizes, 69, q // (8 * param_count(sizes)))
        monkeypatch.setattr(dntk.sketch, "available_memory", lambda: need - 1)
        assert main(["project", "--config", cfg]) == 1
        assert f"needs {need} bytes, {need - 1} bytes" in capsys.readouterr().err
        monkeypatch.setattr(dntk.sketch, "available_memory", lambda: need)
        assert main(["project", "--config", cfg]) == 0
        for key, before in unbounded.items():
            assert (work / FILES[key]).read_bytes() == before

    @pytest.mark.parametrize("stage, what, written, need", [
        (["kernel-stats"], "kernel stack", "kernel_stats",
         8 * SMOKE["layer_sizes"][-1] * SMOKE["n_train"] ** 2),
        (["distill-grads"], "averaged kernel and one class kernel", "distilled",
         2 * 8 * SMOKE["n_train"] ** 2),
        (["fit-krr", "--source", "full"], "class kernel and its eigensystem", "krr",
         8 * SMOKE["n_train"] ** 2 + sym_eig_bytes(SMOKE["n_train"])),
    ], ids=["kernel-stats", "distill-grads", "fit-krr-full"])
    def test_n_squared_arrays_larger_than_free_memory_exit_1(
            self, rundir, tmp_path, capsys, monkeypatch, stage, what, written, need):
        # the (C, n, n) stack, distill's n x n averaged kernel and the class
        # kernel added into it, and full's n x n class kernel and its
        # decomposition, held one class at a time, are refused before they
        # are made, through the error_code= path
        src, cfg = rundir
        work = tmp_path / "run"
        shutil.copytree(src, work)
        (work / FILES[written]).unlink()
        monkeypatch.setattr(dntk.sketch, "available_memory", lambda: need - 1)
        assert main(stage + ["--config", cfg, "--out", str(work)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[0] == "error_code=InsufficientMemory"
        assert err.count("error_code=") == 1
        assert f"{what} needs {need} bytes, {need - 1} bytes of memory are available" in err
        assert "Traceback" not in err
        assert not (work / FILES[written]).exists()


class TestSweepCommand:
    def run_sweep(self, tmp_path, name, *flags, sweep_seeds=(5,)):
        out = tmp_path / name
        cfg = write_cfg(
            tmp_path / f"{name}.json",
            out,
            train_epochs=6,
            methods=["distill", "random"],
            sweep_h=[2, 3],
            sweep_tau_v=[0.9],
            sweep_tau_g=[0.5],
            sweep_seeds=list(sweep_seeds),
        )
        assert main(["sweep", "--config", cfg, *flags]) == 0
        return (out / FILES["sweep"]).read_bytes()

    def test_seed_flag_runs_that_root_seed_alone(self, tmp_path, capsys):
        flag7 = self.run_sweep(tmp_path, "flag7", "--seed", "7", sweep_seeds=(5, 6))
        cfg7 = self.run_sweep(tmp_path, "cfg7", sweep_seeds=(7,))
        flag5 = self.run_sweep(tmp_path, "flag5", "--seed", "5", sweep_seeds=(5, 6))
        capsys.readouterr()
        assert flag7 == cfg7
        assert flag7 != flag5

    def test_grid_rows_and_determinism(self, tmp_path, capsys):
        a = self.run_sweep(tmp_path, "a")
        b = self.run_sweep(tmp_path, "b")
        capsys.readouterr()
        assert a == b
        lines = a.decode().strip().splitlines()
        # header + full + 2 grid cells x (distill, random)
        assert len(lines) == 1 + 1 + 2 * 2
        assert lines[1].startswith("full,")
        assert lines[2].startswith("distill[H=2")

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_1(self, tmp_path, capsys, jobs):
        out = tmp_path / "sweep"
        cfg = write_cfg(tmp_path / "cfg.json", out)
        rc = main(["sweep", "--jobs", jobs, "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error_code=InputError" in captured.err
        assert not (out / FILES["sweep"]).exists()


class TestVerifyTheory:
    def test_passes_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "theory"
        rc = main(["verify-theory", "--seed", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "all theory checks passed" in captured.out
        lines = (out / FILES["theory"]).read_text().strip().splitlines()
        assert lines[0] == "check,value,threshold,passed"
        assert len(lines) == 6
        assert all(line.endswith(",1") for line in lines[1:])

    def test_negative_seed_passes(self, tmp_path, capsys):
        out = tmp_path / "theory"
        rc = main(["verify-theory", "--seed", "-1", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert "all theory checks passed" in captured.out
        lines = (out / FILES["theory"]).read_text().strip().splitlines()
        assert len(lines) == 6 and all(line.endswith(",1") for line in lines[1:])


class TestErrorPaths:
    @pytest.mark.parametrize(
        "argv",
        [["nosuch"], ["gen-data", "--seed", "abc"],
         ["select-baseline", "--method", "bogus", "--budget", "3"]],
        ids=["nosuch", "seed-not-int", "method-not-a-choice"],
    )
    def test_unknown_subcommand_exits_1(self, argv, capsys):
        # usage errors leave through error_code= like every other bad input
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.splitlines().count("error_code=InputError") == 1
        assert err.count("error_code=") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_method_label_with_a_line_break_exits_1(self, rundir, capsys, brk):
        # such a row would end early and leave a report.csv that no later
        # evaluate can append to
        out, cfg = rundir
        report = out / FILES["report"]
        before = report.read_bytes()
        rc = main(["evaluate", "--method", f"a{brk}b", "--config", cfg])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines().count("error_code=InputError") == 1
        assert err.count("error_code=") == 1
        assert "Traceback" not in err
        assert report.read_bytes() == before

    @pytest.mark.parametrize("case, code", [
        ("method_label", "InputError"), ("report_label", "ParseError"), ("config", "ParseError"),
    ])
    def test_text_that_is_not_utf8_exits_1(self, rundir, tmp_path, capsys, case, code):
        # every text file is UTF-8: a byte that is not leaves through
        # error_code=, and report.csv keeps its bytes
        run = tmp_path / "run"
        shutil.copytree(rundir[0], run)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(SMOKE, out_dir=str(run))))
        report = run / FILES["report"]
        method = "distill"
        if case == "method_label":
            method = os.fsdecode(b"bad\xff")  # as argv decodes the byte: "bad\udcff"
        elif case == "report_label":
            rows = report.read_bytes().splitlines(True)
            report.write_bytes(b"".join(rows) + b"\xff\xfe" + rows[-1])
        else:
            cfg.write_bytes(cfg.read_bytes().replace(b'"seed"', b'"se\xffed"'))
        before = report.read_bytes()
        rc = main(["evaluate", "--method", method, "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines().count(f"error_code={code}") == 1
        assert err.count("error_code=") == 1
        assert "Traceback" not in err
        assert report.read_bytes() == before

    def test_config_beyond_memory_exits_1(self, tmp_path, capsys):
        # 10^15 training rows of 16 floats need more than any address space,
        # so numpy refuses the array at once, whatever the machine, and
        # gen-data leaves with numpy's message and writes nothing
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_train": 10**15, "n_test": 10, "layer_sizes": [16, 8, 10]}))
        out = tmp_path / "out"
        rc = main(["gen-data", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines().count("error_code=InsufficientMemory") == 1
        assert err.count("error_code=") == 1
        assert "Traceback" not in err
        assert "Unable to allocate" in err
        assert not (out / FILES["train"]).exists()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_missing_input_file_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "cfg.json", tmp_path / "empty")
        rc = main(["train-model", "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error_code=" in captured.err

    def test_bad_config_key_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"sedd": 1}))
        rc = main(["gen-data", "--config", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error_code=UnknownField" in captured.err

    def test_invalid_config_value_exits_1(self, tmp_path, capsys):
        bad = ({"tau_v": 1.5}, {"h": "5"}, {"lambda_reg": "x"},
               {"k_sketch": -3}, {"train_epochs": 2.5})
        for override in bad:
            cfg = write_cfg(tmp_path / "cfg.json", tmp_path / "o", **override)
            rc = main(["gen-data", "--config", cfg])
            captured = capsys.readouterr()
            assert rc == 1, override
            assert "error_code=" in captured.err, override

    def test_unknown_fit_source_exits_1_before_reading(self, tmp_path, capsys):
        out = tmp_path / "empty"
        cfg = write_cfg(tmp_path / "cfg.json", out)
        rc = main(["fit-krr", "--source", "levarage", "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error_code=InputError" in captured.err
        for name in ("distilled", "full", "random", "leverage", "fps", "kmeans"):
            assert name in captured.err
        assert not out.exists()

    def test_project_refuses_sketched_rows_at_square_width(self, tmp_path, capsys):
        # P = 57 <= k_sketch, so the sketch is square and a sketched file has
        # the raw width: only the kind its header records tells them apart
        out = tmp_path / "square"
        cfg = write_cfg(tmp_path / "cfg.json", out, layer_sizes=[5, 6, 3], k_sketch=64)
        for stage in (["gen-data"], ["train-model"], ["extract-grads"], ["project"]):
            assert main(stage + ["--config", cfg]) == 0
        shutil.copyfile(out / FILES["sketched_train"], out / FILES["grads_train"])
        capsys.readouterr()
        rc = main(["project", "--config", cfg])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines().count("error_code=DimMismatch") == 1
        assert err.count("error_code=") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("damage, code", [("deleted", "IoError"),
                                              ("truncated", "TruncatedFile")])
    def test_project_refuses_a_split_damaged_after_it_is_read(
            self, rundir, tmp_path, capsys, monkeypatch, damage, code):
        # read_gradients checks a raw split but leaves its factors in the
        # file, which project_features reads one row batch at a time: a
        # file deleted or cut short in between is refused then
        out, cfg = rundir
        work = tmp_path / "run"
        work.mkdir()
        for key in ("train", "test", "model", "grads_train", "grads_test"):
            shutil.copyfile(out / FILES[key], work / FILES[key])

        def read_then_damage(path):
            feats = read_gradients(path)
            if damage == "deleted":
                os.remove(path)
            else:
                os.truncate(path, os.path.getsize(path) - 8)
            return feats

        monkeypatch.setattr("dntk.cli.read_gradients", read_then_damage)
        rc = main(["project", "--config", cfg, "--out", str(work)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines()[0] == f"error_code={code}"
        assert err.count("error_code=") == 1
        assert "Traceback" not in err
        assert not (work / FILES["sketched_train"]).exists()

    @pytest.mark.parametrize(
        "planted",
        ["sketched_train", "sketched_test", "other_width", "other_layers"],
    )
    def test_project_refuses_a_split_before_writing(self, rundir, tmp_path, capsys, planted):
        # a sketched split in a raw one's place, or a test split of another
        # network: both headers are refused before Q is drawn, so a run
        # directory without sketch.json or sketched_*.dntk gets none
        out, _ = rundir
        work = tmp_path / "run"
        work.mkdir()
        for key in ("train", "test", "model", "grads_train", "grads_test"):
            shutil.copyfile(out / FILES[key], work / FILES[key])
        if planted.startswith("sketched"):
            raw_key = planted.replace("sketched", "grads")
            shutil.copyfile(out / FILES[planted], work / FILES[raw_key])
        else:
            # [5, 8, 3] has another parameter count; [5, 7, 6, 3] has the
            # same 111 parameters and 3 classes as [5, 12, 3]
            sizes = [5, 8, 3] if planted == "other_width" else [5, 7, 6, 3]
            other = tmp_path / "other"
            other_cfg = write_cfg(tmp_path / "other.json", other,
                                  layer_sizes=sizes, train_epochs=0)
            for stage in ("gen-data", "train-model", "extract-grads"):
                assert main([stage, "--config", other_cfg]) == 0
            shutil.copyfile(other / FILES["grads_test"], work / FILES["grads_test"])
        before = sorted(f.name for f in work.iterdir())
        cfg = write_cfg(tmp_path / "cfg.json", work)
        capsys.readouterr()
        rc = main(["project", "--config", cfg])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines().count("error_code=DimMismatch") == 1
        assert err.count("error_code=") == 1
        assert "Traceback" not in err
        assert sorted(f.name for f in work.iterdir()) == before

    @pytest.mark.parametrize("key", ["grads_test", "grads_train"])
    def test_project_refuses_class_ids_before_writing(self, rundir, tmp_path, capsys, key):
        # a class id outside [0, C) in either raw split is refused as the
        # split is read, before Q is drawn: a rerun at another seed, which
        # would record another sketch, leaves the last run's outputs as they were
        out, cfg = rundir
        work = tmp_path / "run"
        work.mkdir()
        outputs = ("sketch_meta", "sketched_train", "sketched_test")
        for k in ("train", "test", "model", "grads_train", "grads_test", *outputs):
            shutil.copyfile(out / FILES[k], work / FILES[k])
        n = SMOKE["n_test"] if key == "grads_test" else SMOKE["n_train"]
        c = SMOKE["layer_sizes"][-1]
        path = work / FILES[key]
        data = bytearray(path.read_bytes())
        ids_at = len(data) - 8 * (n + n * c)  # the class ids, then the logits
        data[ids_at : ids_at + 8] = np.int64(c).tobytes()
        path.write_bytes(bytes(data))
        before = {k: (work / FILES[k]).read_bytes() for k in outputs}
        capsys.readouterr()
        rc = main(["project", "--config", cfg, "--out", str(work), "--seed", "6"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines().count("error_code=ParseError") == 1
        assert err.count("error_code=") == 1
        assert f"class ids outside [0, {c})" in err
        assert "Traceback" not in err
        assert {k: (work / FILES[k]).read_bytes() for k in outputs} == before

    @pytest.mark.parametrize(
        "stage, key",
        [
            (["kernel-stats"], "sketched_train"),
            (["distill-grads"], "sketched_train"),
            (["select-baseline", "--method", "random", "--budget", "6"], "sketched_train"),
            (["fit-krr", "--source", "distilled"], "sketched_train"),
            (["evaluate"], "sketched_train"),
            (["evaluate"], "sketched_test"),
        ],
        ids=lambda v: v if isinstance(v, str) else v[0],
    )
    def test_sketched_stages_refuse_raw_rows(self, rundir, tmp_path, capsys, stage, key):
        # a raw file in a sketched file's place is told apart by the kind
        # its header records, whatever its width
        out, _ = rundir
        work = tmp_path / "run"
        shutil.copytree(out, work)
        raw_key = key.replace("sketched", "grads")
        shutil.copyfile(work / FILES[raw_key], work / FILES[key])
        cfg = write_cfg(tmp_path / "cfg.json", work)
        capsys.readouterr()
        rc = main(stage + ["--config", cfg])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines().count("error_code=DimMismatch") == 1
        assert err.count("error_code=") == 1
        assert "holds raw rows, expected sketched ones" in err
        assert "Traceback" not in err

    def test_version_one_gradient_file_exits_1(self, rundir, tmp_path, capsys):
        out, _ = rundir
        work = tmp_path / "run"
        shutil.copytree(out, work)
        path = work / FILES["sketched_train"]
        raw = bytearray(path.read_bytes())
        raw[6] = 1  # the version field
        path.write_bytes(bytes(raw))
        cfg = write_cfg(tmp_path / "cfg.json", work)
        rc = main(["kernel-stats", "--config", cfg])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines().count("error_code=VersionMismatch") == 1
        assert "extract-grads" in err and "project" in err
        assert "Traceback" not in err

    def test_singular_system_exits_2(self, tmp_path, capsys):
        # 24 sketched rows of width 16 make a rank-deficient gram, so an
        # unregularized fit must fail as a numerical error
        out = tmp_path / "sing"
        cfg = write_cfg(tmp_path / "cfg.json", out, lambda_reg=0.0)
        for stage in (["gen-data"], ["train-model"], ["extract-grads"], ["project"]):
            assert main(stage + ["--config", cfg]) == 0
        rc = main(["fit-krr", "--source", "full", "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error_code=SingularSystem" in captured.err


def _garbage(path):
    path.write_bytes(b"this is not an npz archive\n")


def _truncated_zip(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _missing_key(path):
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files[1:]}
    np.savez(path, **arrays)


def _edit_arrays(path, **edits):
    """Rewrite an npz archive with some arrays passed through functions."""
    with np.load(path) as z:
        arrays = {k: edits.get(k, lambda a: a)(z[k]) for k in z.files}
    np.savez(path, **arrays)


# npz bundles whose arrays disagree, and a stage that reads each
INCONSISTENT = {
    "alpha_one_class_short": (FILES["krr"], ["evaluate"], {"alpha": lambda a: a[:, :-1]}),
    "basis_one_row_short": (FILES["krr"], ["evaluate"], {"basis": lambda a: a[:, :-1]}),
    # the (s, D, C) layout of older builds
    "basis_old_layout": (
        FILES["krr"], ["evaluate"], {"basis": lambda a: a.transpose(1, 2, 0)}
    ),
    "phi_hat_old_layout": (
        FILES["distilled"], ["fit-krr", "--source", "distilled"],
        {"phi_hat": lambda a: a.transpose(1, 2, 0)},
    ),
    "alpha_string": (FILES["krr"], ["evaluate"], {"alpha": lambda a: a.astype(str)}),
    "y_hat_inf": (
        FILES["distilled"], ["fit-krr", "--source", "distilled"],
        {"y_hat": lambda a: _first_set(a, np.inf)},
    ),
}


def _first_set(a, value):
    a = a.astype(np.float64)
    a.flat[0] = value
    return a


def _nan_first(a):
    return _first_set(a, np.nan)


# model and dataset bundles whose arrays are well-formed npz content but no
# network or dataset the stages can run on, and a stage that reads each
_MODEL = (FILES["model"], ["extract-grads"])
_TRAIN = (FILES["train"], ["train-model"])
INVALID = {
    "theta_short": (*_MODEL, {"theta": lambda a: a[:-5]}),
    "theta_2d": (*_MODEL, {"theta": lambda a: a[None, :]}),
    "theta_nan": (*_MODEL, {"theta": _nan_first}),
    "activation_unknown": (*_MODEL, {"activation": lambda a: np.array("sigmoid")}),
    # [5, 0, 3] has 3 parameters, so only the zero width is wrong
    "layer_width_zero": (
        *_MODEL, {"layer_sizes": lambda a: np.array([5, 0, 3]), "theta": lambda a: a[:3]}
    ),
    "layer_sizes_float": (*_MODEL, {"layer_sizes": lambda a: a.astype(np.float64)}),
    "layer_sizes_one": (
        *_MODEL, {"layer_sizes": lambda a: a[:1], "theta": lambda a: a[:0]}
    ),
    "inputs_1d": (*_TRAIN, {"inputs": lambda a: a[:, 0]}),
    "inputs_nan": (*_TRAIN, {"inputs": _nan_first}),
    "labels_short": (*_TRAIN, {"labels": lambda a: a[:-1]}),
    "labels_float": (*_TRAIN, {"labels": lambda a: a.astype(np.float64)}),
    "labels_out_of_range": (*_TRAIN, {"labels": lambda a: a + 3}),
    "class_count_one": (*_TRAIN, {"class_count": lambda a: np.int64(1)}),
    "test_labels_short": (FILES["test"], ["extract-grads"], {"labels": lambda a: a[:-1]}),
}


# each npz artifact and a stage that reads it
NPZ_READERS = {
    FILES["train"]: ["train-model"],
    FILES["model"]: ["extract-grads"],
    FILES["distilled"]: ["fit-krr", "--source", "distilled"],
    FILES["krr"]: ["evaluate"],
    "selected_random.npz": ["fit-krr", "--source", "random"],
}


class TestMalformedArtifacts:
    # a file left open warns when it is collected; the suite's filterwarnings
    # raise the warning there as an error, which reaches pytest as an
    # unraisable exception and fails the test
    @pytest.mark.parametrize("damage", [_garbage, _truncated_zip, _missing_key],
                             ids=["garbage", "truncated_zip", "missing_key"])
    @pytest.mark.parametrize("artifact", sorted(NPZ_READERS))
    def test_malformed_npz_exits_1(self, rundir, tmp_path, capsys, artifact, damage):
        out, _ = rundir
        work = tmp_path / "run"
        shutil.copytree(out, work)
        damage(work / artifact)
        cfg = write_cfg(tmp_path / "cfg.json", work)
        rc = main(NPZ_READERS[artifact] + ["--config", cfg])
        gc.collect()
        captured = capsys.readouterr()
        assert rc == 1
        assert "error_code=ParseError" in captured.err

    @pytest.mark.parametrize("case", sorted(INCONSISTENT))
    def test_inconsistent_npz_exits_1(self, rundir, tmp_path, capsys, case):
        self.check_edited_exits_1(rundir, tmp_path, capsys, *INCONSISTENT[case])

    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_invalid_model_or_dataset_exits_1(self, rundir, tmp_path, capsys, case):
        self.check_edited_exits_1(rundir, tmp_path, capsys, *INVALID[case])

    def test_train_inputs_of_wrong_width_exits_1(self, rundir, tmp_path, capsys):
        # a 10-wide train.npz for the 5-input net of the config
        self.check_edited_exits_1(rundir, tmp_path, capsys, FILES["train"], ["train-model"],
                                  {"inputs": lambda a: np.hstack([a, a])}, code="DimMismatch")

    @staticmethod
    def check_edited_exits_1(rundir, tmp_path, capsys, artifact, stage, edits,
                             code="ParseError"):
        out, _ = rundir
        work = tmp_path / "run"
        shutil.copytree(out, work)
        _edit_arrays(work / artifact, **edits)
        cfg = write_cfg(tmp_path / "cfg.json", work)
        rc = main(stage + ["--config", cfg])
        captured = capsys.readouterr()
        assert rc == 1
        assert f"error_code={code}" in captured.err
        assert captured.err.count("error_code=") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "content", ["not,a,report\n1,2,3\n", "", "seed,method\n", "garbage\n",
                    "{header}\nnot,a,row\n"],
        ids=["garbage", "empty", "wrong_header", "no_header", "bad_row"],
    )
    def test_evaluate_into_garbage_report_exits_1(self, rundir, tmp_path, capsys, content):
        # evaluate writes the rows of report.csv back with its own after
        # them; one that does not read back as a report is refused and left
        # as it was
        out, _ = rundir
        work = tmp_path / "run"
        shutil.copytree(out, work)
        garbage = content.format(header=",".join(REPORT_COLUMNS)).encode()
        (work / FILES["report"]).write_bytes(garbage)
        cfg = write_cfg(tmp_path / "cfg.json", work)
        rc = main(["evaluate", "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.splitlines().count("error_code=ParseError") == 1
        assert captured.err.count("error_code=") == 1
        assert "Traceback" not in captured.err
        assert (work / FILES["report"]).read_bytes() == garbage

    def test_evaluate_after_a_row_without_its_newline(self, rundir, tmp_path, capsys):
        # the rows read back print to the same text, so the report keeps its
        # bytes, the lost newline comes back, and the new row follows it
        out, _ = rundir
        work = tmp_path / "run"
        shutil.copytree(out, work)
        report = work / FILES["report"]
        before = report.read_bytes()
        report.write_bytes(before.rstrip(b"\n"))
        cfg = write_cfg(tmp_path / "cfg.json", work)
        assert main(["evaluate", "--method", "again", "--config", cfg]) == 0
        capsys.readouterr()
        assert report.read_bytes().startswith(before)
        rows = read_report(report)
        assert rows[:-1] == read_report(out / FILES["report"])
        assert rows[-1].method == "again"

    @pytest.mark.parametrize("edits, held", [
        ({"phi_hat": lambda a: np.concatenate([a, a[:, :, :1]], axis=2)}, "of width 17"),
        ({"phi_hat": lambda a: a[:-1], "y_hat": lambda a: a[:, :-1]}, "holds 2 classes"),
        ({"lifted_basis": lambda a: a[:-1]}, "from 23 rows"),
    ], ids=["width", "classes", "lifted_rows"])
    def test_distilled_set_of_other_rows_exits_1(self, rundir, tmp_path, capsys, edits, held):
        # a distilled set drawn from other training rows than the sketched
        # ones is refused before the fit, and krr_model.npz keeps its bytes
        out, _ = rundir
        work = tmp_path / "run"
        shutil.copytree(out, work)
        _edit_arrays(work / FILES["distilled"], **edits)
        before = (work / FILES["krr"]).read_bytes()
        cfg = write_cfg(tmp_path / "cfg.json", work)
        rc = main(["fit-krr", "--source", "distilled", "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.splitlines().count("error_code=DimMismatch") == 1
        assert captured.err.count("error_code=") == 1
        assert "Traceback" not in captured.err
        assert held in captured.err
        assert (work / FILES["krr"]).read_bytes() == before

    def test_zero_basis_exits_2(self, rundir, tmp_path, capsys):
        # schema-valid, but the rows span nothing to score coverage against:
        # numerically degenerate, as the same set is in-process, and
        # report.csv keeps its bytes
        out, _ = rundir
        work = tmp_path / "run"
        shutil.copytree(out, work)
        _edit_arrays(work / FILES["krr"], basis=np.zeros_like)
        before = (work / FILES["report"]).read_bytes()
        cfg = write_cfg(tmp_path / "cfg.json", work)
        rc = main(["evaluate", "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.splitlines().count("error_code=ZeroTrace") == 1
        assert captured.err.count("error_code=") == 1
        assert "Traceback" not in captured.err
        assert (work / FILES["report"]).read_bytes() == before

    def test_selection_out_of_range_exits_1(self, rundir, tmp_path, capsys):
        self.check_edited_exits_1(
            rundir, tmp_path, capsys, "selected_random.npz", ["fit-krr", "--source", "random"],
            {"indices": lambda a: np.array([0, 10**6], dtype=np.int64)}, code="IndexOutOfRange",
        )

    def test_selection_of_another_method_exits_1(self, rundir, tmp_path, capsys):
        # a random selection in selected_fps.npz's place records its method,
        # so fitting on fps refuses it and writes no model
        out, _ = rundir
        work = tmp_path / "run"
        shutil.copytree(out, work)
        shutil.copyfile(work / "selected_random.npz", work / "selected_fps.npz")
        (work / FILES["krr"]).unlink()
        cfg = write_cfg(tmp_path / "cfg.json", work)
        rc = main(["fit-krr", "--source", "fps", "--config", cfg])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines().count("error_code=ParseError") == 1
        assert err.count("error_code=") == 1
        assert "`dntk select-baseline --method fps`" in err
        assert "Traceback" not in err
        assert not (work / FILES["krr"]).exists()

    def test_model_without_its_set_exits_1(self, rundir, tmp_path, capsys):
        # a krr_model.npz that does not record the set it was fit on cannot
        # tag its row: evaluate refuses it, names the stage that writes it,
        # and report.csv keeps its bytes
        out, _ = rundir
        work = tmp_path / "run"
        shutil.copytree(out, work)
        with np.load(work / FILES["krr"]) as z:
            arrays = {k: z[k] for k in z.files if k != "method"}
        np.savez(work / FILES["krr"], **arrays)
        before = (work / FILES["report"]).read_bytes()
        cfg = write_cfg(tmp_path / "cfg.json", work)
        rc = main(["evaluate", "--config", cfg])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines().count("error_code=ParseError") == 1
        assert err.count("error_code=") == 1
        assert "`dntk fit-krr`" in err
        assert "Traceback" not in err
        assert (work / FILES["report"]).read_bytes() == before


# each stage that reads artifacts, and the artifacts it reads; report.csv,
# which evaluate appends to, has its own test above
STAGE_INPUTS = {
    ("train-model",): (FILES["train"],),
    ("extract-grads",): (FILES["model"], FILES["train"], FILES["test"]),
    ("project",): (FILES["grads_train"], FILES["grads_test"]),
    ("kernel-stats",): (FILES["sketched_train"],),
    ("distill-grads",): (FILES["sketched_train"],),
    ("select-baseline", "--method", "random", "--budget", "6"): (FILES["sketched_train"],),
    ("fit-krr", "--source", "distilled"): (FILES["sketched_train"], FILES["distilled"]),
    ("fit-krr", "--source", "random"): (FILES["sketched_train"], "selected_random.npz"),
    ("evaluate",): (FILES["krr"], FILES["sketched_test"], FILES["sketched_train"]),
}
STAGE_ARTIFACTS = [(stage, name) for stage, names in STAGE_INPUTS.items() for name in names]


@pytest.mark.parametrize("damage", ["truncated", "random_bytes", "deleted"])
@pytest.mark.parametrize(
    "stage, artifact", STAGE_ARTIFACTS, ids=[f"{s[0]}-{a}" for s, a in STAGE_ARTIFACTS]
)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_damaged_input_leaves_through_error_code(rundir, stage, artifact, damage, data):
    # any damage to a stage's input is a bad input: exit 1 or 2 with one
    # error_code= line, never an exception out of main
    out, cfg = rundir
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "run"
        shutil.copytree(out, work)
        path = work / artifact
        if damage == "truncated":
            content = path.read_bytes()
            path.write_bytes(content[: data.draw(st.integers(0, len(content) - 1))])
        elif damage == "random_bytes":
            path.write_bytes(data.draw(st.binary(max_size=512)))
        else:
            path.unlink()
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main([*stage, "--config", cfg, "--out", str(work)])
    lines = err.getvalue().splitlines()
    assert rc in (1, 2)
    assert sum(line.startswith("error_code=") for line in lines) == 1
    assert "Traceback" not in err.getvalue()


def test_import_loads_no_scipy():
    src = str(Path(dntk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, dntk.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    assert done.stdout.strip() == "[]"


class TestOutDirPrecedence:
    def test_env_var_fallback(self, tmp_path, capsys, monkeypatch):
        envdir = tmp_path / "from_env"
        cfgdir = tmp_path / "from_cfg"
        cfg = write_cfg(tmp_path / "cfg.json", cfgdir)
        monkeypatch.setenv("DNTK_OUT", str(envdir))
        assert main(["gen-data", "--config", cfg]) == 0
        capsys.readouterr()
        assert (envdir / FILES["train"]).exists()
        assert not cfgdir.exists()

    def test_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        envdir = tmp_path / "env2"
        flagdir = tmp_path / "flag"
        cfg = write_cfg(tmp_path / "cfg.json", tmp_path / "cfg_out")
        monkeypatch.setenv("DNTK_OUT", str(envdir))
        assert main(["gen-data", "--config", cfg, "--out", str(flagdir)]) == 0
        capsys.readouterr()
        assert (flagdir / FILES["train"]).exists()
        assert not envdir.exists()

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg = write_cfg(tmp_path / "cfg.json", out_a)
        assert main(["gen-data", "--config", cfg]) == 0
        assert main(["gen-data", "--config", cfg, "--out", str(out_b), "--seed", "99"]) == 0
        capsys.readouterr()
        with np.load(out_a / FILES["train"]) as za, np.load(out_b / FILES["train"]) as zb:
            assert not np.allclose(za["inputs"], zb["inputs"])


class TestStageDirectories:
    # a stage that fails leaves no directory it made for its outputs
    @pytest.mark.parametrize("stage, out", [(["train-model"], "newdir"), (["evaluate"], "a/b/c")],
                             ids=["train-model", "evaluate-nested"])
    def test_failed_stage_leaves_no_directory(self, tmp_path, capsys, stage, out):
        cfg = write_cfg(tmp_path / "cfg.json", tmp_path / "cfg_out")
        rc = main([*stage, "--config", cfg, "--out", str(tmp_path / out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines().count("error_code=IoError") == 1
        assert err.count("error_code=") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_failed_stage_keeps_the_directories_it_found(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        cfg = write_cfg(tmp_path / "cfg.json", tmp_path / "a" / "b")
        assert main(["train-model", "--config", cfg]) == 1
        capsys.readouterr()
        assert [p.name for p in tmp_path.joinpath("a").iterdir()] == []

    def test_gen_data_makes_nested_directories(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "cfg.json", tmp_path / "a" / "b" / "c")
        assert main(["gen-data", "--config", cfg]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in (tmp_path / "a" / "b" / "c").iterdir()) == [
            FILES["test"], FILES["train"]]
