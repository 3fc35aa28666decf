"""End-to-end smoke of the command line front end.

The main fixture walks every stage in order on a tiny task, so each test
inspects the artifacts of a single real run instead of re-running the
chain. Error-path tests get their own scratch directories.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dntk
from dntk.cli import FILES, main
from dntk.io import read_report

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

    def test_kernel_stats_csv(self, rundir):
        out, _ = rundir
        lines = (out / FILES["kernel_stats"]).read_text().strip().splitlines()
        assert lines[0] == "class,trace,trunc_rank,condition,min_eig,effective_dim"
        assert len(lines) == 1 + 3  # one row per class
        for ci, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == ci
            assert float(cells[1]) > 0  # trace of a nonzero PSD kernel

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

    def test_fit_full_source(self, rundir, capsys):
        out, cfg = rundir
        assert main(["fit-krr", "--source", "full", "--config", cfg]) == 0
        capsys.readouterr()
        with np.load(out / FILES["krr"]) as z:
            assert z["basis"].shape[0] == 24

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
            assert z["phi_hat"].shape[0] <= 2


class TestSweepCommand:
    def run_sweep(self, tmp_path, name):
        out = tmp_path / name
        cfg = write_cfg(
            tmp_path / f"{name}.json",
            out,
            train_epochs=6,
            methods=["distill", "random"],
            sweep_h=[2, 3],
            sweep_tau_v=[0.9],
            sweep_tau_g=[0.5],
            sweep_seeds=[5],
        )
        assert main(["sweep", "--config", cfg]) == 0
        return (out / FILES["sweep"]).read_bytes()

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


class TestErrorPaths:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

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


# each npz artifact and a stage that reads it
NPZ_READERS = {
    FILES["train"]: ["train-model"],
    FILES["model"]: ["extract-grads"],
    FILES["distilled"]: ["fit-krr", "--source", "distilled"],
    FILES["krr"]: ["evaluate"],
    "selected_random.npz": ["fit-krr", "--source", "random"],
}


class TestMalformedArtifacts:
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
        captured = capsys.readouterr()
        assert rc == 1
        assert "error_code=ParseError" in captured.err

    def test_selection_out_of_range_exits_1(self, rundir, tmp_path, capsys):
        out, _ = rundir
        work = tmp_path / "run"
        shutil.copytree(out, work)
        np.savez(work / "selected_random.npz", indices=np.array([0, 10**6], dtype=np.int64))
        cfg = write_cfg(tmp_path / "cfg.json", work)
        rc = main(["fit-krr", "--source", "random", "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error_code=IndexOutOfRange" in captured.err


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
