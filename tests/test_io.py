import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from helpers import feats_from_blocks
from hypothesis import given, settings
from hypothesis import strategies as st

from dntk import io as dio
from dntk.baselines import SelectionResult
from dntk.distill import distill
from dntk.errors import (
    IndexOutOfRange,
    InputError,
    IoError,
    ParseError,
    TruncatedFile,
    UnknownField,
    VersionMismatch,
)
from dntk.krr import fit
from dntk.sketch import sample_orthonormal
from dntk.tangent import SKETCHED, gen_gaussian_mixture, init_params


def tiny_feats(seed=0, c=2, n=4, d=6):
    rng = np.random.default_rng(seed)
    return feats_from_blocks(rng.normal(size=(c, n, d)),
                             labels=rng.integers(0, c, size=n))


class TestGradientFile:
    def test_header_size(self):
        # 6-byte magic, four u32 fields, two u8 flags
        assert dio._HEADER.size == 24

    def test_minimal_file_size(self, tmp_path):
        feats = tiny_feats(c=1, n=1, d=1)
        path = tmp_path / "g.dntk"
        dio.write_gradients(feats, path)
        # header + 1 gradient + 1 label + 1 logit, all float64
        assert path.stat().st_size == 24 + 8 + 8 + 8

    def test_roundtrip_bitwise(self, tmp_path):
        feats = tiny_feats(seed=1, c=3, n=5, d=7)
        path = tmp_path / "g.dntk"
        dio.write_gradients(feats, path)
        back = dio.read_gradients(path)
        np.testing.assert_array_equal(back.per_class, feats.per_class)
        np.testing.assert_array_equal(back.labels, feats.labels)
        np.testing.assert_array_equal(back.model_logits, feats.model_logits)

    def test_write_deterministic(self, tmp_path):
        feats = tiny_feats(seed=2)
        a, b = tmp_path / "a.dntk", tmp_path / "b.dntk"
        dio.write_gradients(feats, a)
        dio.write_gradients(feats, b)
        assert a.read_bytes() == b.read_bytes()

    def test_dim_kind_parameter(self, tmp_path):
        feats = tiny_feats(seed=3)
        path = tmp_path / "g.dntk"
        dio.write_gradients(feats, path)
        assert dio.read_gradients(path).dim_kind == "raw_params"
        assert dio.read_gradients(path, dim_kind=SKETCHED).dim_kind == "sketched"

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "g.dntk"
        dio.write_gradients(tiny_feats(), path)
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError):
            dio.read_gradients(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "g.dntk"
        dio.write_gradients(tiny_feats(), path)
        raw = bytearray(path.read_bytes())
        raw[6] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatch):
            dio.read_gradients(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "g.dntk"
        dio.write_gradients(tiny_feats(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(TruncatedFile):
            dio.read_gradients(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "g.dntk"
        dio.write_gradients(tiny_feats(), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(TruncatedFile):
            dio.read_gradients(path)


def _header(m=2, d=3, c=2, dtype=dio._DTYPE_F64):
    return dio._HEADER.pack(dio.MAGIC, dio.VERSION, m, d, c, dtype, dio._LABELS_SOFT)


def _malformed(tmp_path, case):
    path = tmp_path / "g.dntk"
    if case == "empty":
        path.write_bytes(b"")
    elif case == "ten_bytes":
        path.write_bytes(dio.MAGIC + b"\x01\x00\x00\x00")
    elif case == "header_only":
        path.write_bytes(_header())
    elif case == "m_zero":
        path.write_bytes(_header(m=0))
    elif case == "bad_dtype":
        path.write_bytes(_header(dtype=7) + b"\x00" * 8 * (2 * 2 * 3 + 2 * 2 * 2))
    elif case == "directory":
        path.mkdir()
    else:  # "missing": nothing at the path
        pass
    return path


@pytest.mark.parametrize(
    "case, error",
    [
        ("empty", TruncatedFile),
        ("ten_bytes", TruncatedFile),
        ("header_only", TruncatedFile),
        ("m_zero", ParseError),
        ("bad_dtype", ParseError),
        ("missing", IoError),
        ("directory", IoError),
    ],
)
def test_malformed_gradient_file(tmp_path, case, error):
    with pytest.raises(error):
        dio.read_gradients(_malformed(tmp_path, case))


NPZ_READERS = {
    "dataset": dio.read_dataset,
    "model": dio.read_model,
    "distilled": dio.read_distilled,
    "krr": dio.read_krr,
    "selection": lambda path: dio.read_selection(path, 10),
}


@pytest.mark.parametrize(
    "case, error",
    [("empty", ParseError), ("npy", ParseError), ("missing", IoError), ("directory", IoError)],
)
@pytest.mark.parametrize("reader", sorted(NPZ_READERS))
def test_malformed_npz_file(tmp_path, reader, case, error):
    path = tmp_path / "a.npz"
    if case == "empty":
        path.write_bytes(b"")
    elif case == "npy":  # a lone array, not an archive
        with open(path, "wb") as fh:
            np.save(fh, np.arange(3))
    elif case == "directory":
        path.mkdir()
    with pytest.raises(error):
        NPZ_READERS[reader](path)


def test_selection_roundtrip_and_checks(tmp_path):
    path = tmp_path / "sel.npz"
    dio.write_selection(SelectionResult(np.array([4, 0, 7]), "random", 3), path)
    np.testing.assert_array_equal(dio.read_selection(path, 8), [4, 0, 7])
    with pytest.raises(IndexOutOfRange):
        dio.read_selection(path, 7)
    np.savez(path, indices=np.array([[0, 1]]))
    with pytest.raises(ParseError):
        dio.read_selection(path, 8)
    np.savez(path, indices=np.array([0.0, 1.0]))
    with pytest.raises(ParseError):
        dio.read_selection(path, 8)


def _traced_peak(fn):
    """Peak bytes traced while fn runs, above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_gradient_file_io_holds_one_copy(tmp_path):
    # 4 classes x 256 rows x 1024 wide: an 8 MiB payload
    feats = tiny_feats(seed=4, c=4, n=256, d=1024)
    payload = 8 * (feats.per_class.size + feats.labels.size + feats.model_logits.size)
    path = tmp_path / "g.dntk"
    write_peak = _traced_peak(lambda: dio.write_gradients(feats, path))
    assert path.stat().st_size == dio._HEADER.size + payload
    read_peak = _traced_peak(lambda: dio.read_gradients(path))
    assert read_peak <= 1.1 * payload
    assert write_peak <= 0.05 * payload


class TestReport:
    def row(self, **over):
        base = dict(method="distill", seed=3, s=5, compression=4.8,
                    fidelity=1.0, accuracy=0.9, mse=0.01, coverage=0.99,
                    recon_error=0.001, condition=12.5, min_eig=1e-7)
        base.update(over)
        return dio.ReportRow(**base)

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        dio.write_report([], path)
        lines = path.read_text().splitlines()
        assert lines == [",".join(dio.REPORT_COLUMNS)]

    def test_one_row_two_lines(self, tmp_path):
        path = tmp_path / "r.csv"
        dio.write_report([self.row()], path)
        assert len(path.read_text().splitlines()) == 2

    def test_roundtrip(self, tmp_path):
        rows = [self.row(), self.row(method="fps", seed=4, mse=1 / 3)]
        path = tmp_path / "r.csv"
        dio.write_report(rows, path)
        back = dio.read_report(path)
        assert back == rows

    def test_seventeen_digit_floats(self, tmp_path):
        path = tmp_path / "r.csv"
        dio.write_report([self.row(mse=1 / 3)], path)
        assert "0.33333333333333331" in path.read_text()

    def test_append(self, tmp_path):
        path = tmp_path / "r.csv"
        dio.write_report([self.row()], path)
        dio.write_report([self.row(seed=9)], path, append=True)
        back = dio.read_report(path)
        assert [r.seed for r in back] == [3, 9]


class TestRunConfig:
    def test_defaults_from_empty_object(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        cfg = dio.read_config(path)
        assert cfg == dio.RunConfig()

    def test_override_respected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 42, "tau_v": 0.9}))
        cfg = dio.read_config(path)
        assert cfg.seed == 42
        assert cfg.tau_v == 0.9
        assert cfg.tau_g == dio.RunConfig().tau_g

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"sedd": 1}))
        with pytest.raises(UnknownField):
            dio.read_config(path)

    def test_validation_catches_bad_ranges(self):
        with pytest.raises(Exception):
            dio.config_from_dict({"tau_v": 1.5}).validate()
        with pytest.raises(Exception):
            dio.config_from_dict({"n_train": -5}).validate()

    @pytest.mark.parametrize(
        "override",
        [
            {"h": "5"},
            {"lambda_reg": "x"},
            {"k_sketch": -3},
            {"train_epochs": 2.5},
            {"train_batch": True},
            {"layer_sizes": 16},
            {"layer_sizes": [16, 64.0, 10]},
            {"activation": "gelu"},
            {"spread": float("nan")},
            {"train_lr": 0},
            {"budgets": [5, 0]},
            {"sweep_tau_g": [0.5, 1.5]},
            {"sweep_seeds": ["0"]},
            {"methods": [["distill"]]},
            {"out_dir": 3},
        ],
    )
    def test_validation_checks_type_and_range(self, override):
        with pytest.raises(InputError):
            dio.config_from_dict(override)

    def test_write_read_roundtrip(self, tmp_path):
        cfg = dio.RunConfig(seed=7, layer_sizes=[4, 9, 3], n_train=12, n_test=6)
        path = tmp_path / "c.json"
        dio.write_config(cfg, path)
        assert dio.read_config(path) == cfg


class TestNpzRoundtrips:
    def test_dataset(self, tmp_path):
        data = gen_gaussian_mixture(3, 4, 5, 0.5, seed=0)
        path = tmp_path / "d.npz"
        dio.write_dataset(data, path)
        back = dio.read_dataset(path)
        np.testing.assert_array_equal(back.inputs, data.inputs)
        np.testing.assert_array_equal(back.labels, data.labels)
        assert back.class_count == 3

    def test_model(self, tmp_path):
        params = init_params([5, 8, 2], seed=1, activation="relu")
        path = tmp_path / "m.npz"
        dio.write_model(params, path)
        back = dio.read_model(path)
        np.testing.assert_array_equal(back.theta, params.theta)
        assert back.layer_sizes == params.layer_sizes
        assert back.activation == "relu"

    def test_sketch_meta_regenerates_operator(self, tmp_path):
        op = sample_orthonormal(40, 8, seed=11)
        path = tmp_path / "s.json"
        dio.write_sketch_meta(op, path)
        back = dio.read_sketch_meta(path)
        np.testing.assert_array_equal(back.q, op.q)
        assert back.scale == op.scale

    def test_distilled(self, tmp_path):
        rng = np.random.default_rng(2)
        feats = feats_from_blocks(rng.normal(size=(2, 8, 6)))
        dg, report = distill(feats, h=2, tau_v=0.95, tau_g=0.5, seed=0)
        path = tmp_path / "dg.npz"
        dio.write_distilled(dg, report, path)
        dg2, report2 = dio.read_distilled(path)
        np.testing.assert_array_equal(dg2.phi_hat, dg.phi_hat)
        np.testing.assert_array_equal(dg2.y_hat, dg.y_hat)
        assert dg2.provenance == dg.provenance
        assert report2.gap_set == report.gap_set
        assert report2.local_ranks == report.local_ranks
        assert report2.tau_v == report.tau_v

    def test_krr(self, tmp_path):
        rng = np.random.default_rng(3)
        basis = rng.normal(size=(6, 10, 2))
        y = rng.normal(size=(6, 2))
        model = fit(basis, y, lambda_reg=0.01, rank=4, scale_kind="none")
        path = tmp_path / "k.npz"
        dio.write_krr(model, path)
        back = dio.read_krr(path)
        np.testing.assert_array_equal(back.alpha, model.alpha)
        np.testing.assert_array_equal(back.basis, model.basis)
        assert back.rank == 4
        assert back.scale_kind == "none"
        assert back.lambda_reg == 0.01


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=40),
    st.integers(min_value=10**300, max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["tanh", "relu", "inv_k", "none", "distill", "kmeans", "", "5"]),
)
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=4))


@settings(max_examples=300, deadline=None)
@given(
    st.fixed_dictionaries(
        {}, optional={f.name: _VALUES for f in dataclasses.fields(dio.RunConfig)}
    )
)
def test_config_from_dict_validates_or_raises_input_error(data):
    try:
        cfg = dio.config_from_dict(data)
    except InputError:
        return
    assert cfg.n_train % cfg.class_count == 0
