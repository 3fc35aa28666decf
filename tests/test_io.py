import collections
import dataclasses
import json
import os
import struct

import numpy as np
import pytest
from helpers import class_blocks, feats_from_blocks, reference_per_class, traced_peak
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
from dntk.kernel import SCALE_CHOICES, scale_factor
from dntk.krr import fit
from dntk.pipeline import sketched_features
from dntk.sketch import SketchRecord, project_features, sample_orthonormal
from dntk.tangent import (ROW_BATCH, ClassRows, extract_features, factor_record,
                          gen_gaussian_mixture, init_params, layer_factors)


def tiny_feats(seed=0, c=2, n=4, d=6):
    """Sketched rows: a (C, n, d) array with its labels and logits."""
    rng = np.random.default_rng(seed)
    return feats_from_blocks(rng.normal(size=(c, n, d)), labels=rng.integers(0, c, size=n))


def tiny_raw(seed=0, sizes=(3, 4, 2), n=5):
    """Raw rows as extraction makes them: the backward pass's factors."""
    rng = np.random.default_rng(seed)
    params = init_params(list(sizes), seed=seed)
    return extract_features(params, rng.normal(size=(n, sizes[0])),
                            rng.integers(0, sizes[-1], size=n))


class TestGradientFile:
    def test_header_size(self):
        # 6-byte magic, four u32 fields (version, m, D, C), one u8 kind
        assert dio._HEADER.size == 23

    def test_minimal_file_size(self, tmp_path):
        feats = tiny_feats(c=1, n=1, d=1)
        path = tmp_path / "g.dntk"
        dio.write_gradients(feats, path)
        # header + 1 float64 gradient + 1 int64 class id + 1 float64 logit
        assert path.stat().st_size == 23 + 8 + 8 + 8

    def test_header_and_payload_layout(self, tmp_path):
        feats = tiny_feats(seed=5, c=3, n=4, d=2)
        path = tmp_path / "g.dntk"
        dio.write_gradients(feats, path)
        raw = path.read_bytes()
        assert raw[:23] == b"DNTK1\0" + bytes([4, 0, 0, 0, 4, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 1])
        rows_end = 23 + 8 * 3 * 4 * 2
        assert raw[23:rows_end] == feats.per_class.astype("<f8").tobytes()
        assert raw[rows_end : rows_end + 32] == feats.labels.astype("<i8").tobytes()
        assert raw[rows_end + 32 :] == feats.model_logits.astype("<f8").tobytes()

    def test_roundtrip_bitwise(self, tmp_path):
        feats = tiny_feats(seed=1, c=3, n=5, d=7)
        path = tmp_path / "g.dntk"
        dio.write_gradients(feats, path)
        back = dio.read_gradients(path)
        np.testing.assert_array_equal(class_blocks(back.per_class), feats.per_class)
        np.testing.assert_array_equal(back.labels, feats.labels)
        assert back.labels.dtype == np.int64
        np.testing.assert_array_equal(back.model_logits, feats.model_logits)

    def test_write_deterministic(self, tmp_path):
        feats = tiny_feats(seed=2)
        a, b = tmp_path / "a.dntk", tmp_path / "b.dntk"
        dio.write_gradients(feats, a)
        dio.write_gradients(feats, b)
        assert a.read_bytes() == b.read_bytes()

    def test_raw_header_and_payload_layout(self, tmp_path):
        # after the header: the layer count and widths, then one record per
        # sample, per layer in network order its dz (C, fan_out) then its a
        # (fan_in,)
        feats = tiny_raw(seed=6, sizes=(3, 4, 2), n=5)
        rows = feats.per_class
        path = tmp_path / "g.dntk"
        dio.write_gradients(feats, path)
        raw = path.read_bytes()
        assert raw[:23] == dio._HEADER.pack(dio.MAGIC, 4, 5, 26, 2, 0)
        assert raw[23:39] == struct.pack("<4I", 3, 3, 4, 2)
        # 5 rows: one row batch holds them all
        factors = layer_factors(next(rows.batches()))  # network order, as each record holds them
        assert [dz.shape for dz, _ in factors] == [(5, 2, 4), (5, 2, 2)]
        assert [a.shape for _, a in factors] == [(5, 3), (5, 4)]
        payload = b"".join(dz[i].astype("<f8").tobytes() + a[i].astype("<f8").tobytes()
                           for i in range(5) for dz, a in factors)
        assert len(payload) == 5 * 8 * (2 * 4 + 3 + 2 * 2 + 4)
        assert raw[39 : 39 + len(payload)] == payload
        assert raw[39 + len(payload) :] == (feats.labels.astype("<i8").tobytes()
                                            + feats.model_logits.astype("<f8").tobytes())
        assert len(raw) == dio.gradient_file_bytes(5, 26, 2, (3, 4, 2))

    def test_raw_roundtrip_bitwise(self, tmp_path):
        feats = tiny_raw(seed=7, sizes=(4, 6, 5, 3), n=9)
        path = tmp_path / "g.dntk"
        dio.write_gradients(feats, path)
        back = dio.read_gradients(path)
        assert isinstance(back.per_class, ClassRows)
        assert back.per_class.layer_sizes == (4, 6, 5, 3)
        np.testing.assert_array_equal(class_blocks(back.per_class), class_blocks(feats.per_class))
        np.testing.assert_array_equal(back.labels, feats.labels)
        np.testing.assert_array_equal(back.model_logits, feats.model_logits)

    @pytest.mark.parametrize("raw", [True, False], ids=["raw", "sketched"])
    def test_kind_byte_recorded(self, tmp_path, raw):
        # the rows' type names the kind: byte 22 is 0 for a ClassRows, 1 for
        # an array, and the reader builds the type the byte names
        feats = tiny_raw(seed=3) if raw else tiny_feats(seed=3)
        path = tmp_path / "g.dntk"
        dio.write_gradients(feats, path)
        assert path.read_bytes()[22] == (0 if raw else 1)
        back = dio.read_gradients(path)
        assert back.raw is raw
        assert type(back.per_class) is (ClassRows if raw else np.ndarray)
        # the extents read back; a raw file records its network's widths too
        assert back.per_class.shape == (feats.class_count, feats.size, feats.width)
        if raw:
            assert back.per_class.layer_sizes == (3, 4, 2)  # tiny_raw's network

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

    def test_version_two_file_names_the_stages_to_rerun(self, tmp_path):
        # a version-2 raw file: the 23-byte header, then C dense (m, D) row
        # blocks, m int64 class ids and (m, C) f64 logits
        m, d, c = 2, 3, 2
        path = tmp_path / "g.dntk"
        path.write_bytes(dio._HEADER.pack(dio.MAGIC, 2, m, d, c, 0)
                         + b"\0" * 8 * (c * m * d + m + m * c))
        with pytest.raises(VersionMismatch, match="version 2.*extract-grads.*project"):
            dio.read_gradients(path)

    def test_version_three_file_names_the_stages_to_rerun(self, tmp_path):
        # a version-3 raw file: the 23-byte header, the layer count and
        # widths, then per layer the (m, C, fan_out) dz and (m, fan_in) a
        # blocks, m int64 class ids and (m, C) f64 logits
        m, sizes = 2, (3, 4, 2)
        path = tmp_path / "g.dntk"
        path.write_bytes(dio._HEADER.pack(dio.MAGIC, 3, m, 26, 2, 0)
                         + struct.pack("<4I", 3, *sizes)
                         + b"\0" * 8 * m * (2 * 4 + 3 + 2 * 2 + 4 + 1 + 2))
        with pytest.raises(VersionMismatch, match="version 3.*extract-grads.*project"):
            dio.read_gradients(path)

    @pytest.mark.parametrize("widths", [(3, 4, 2, 1), (3, 5, 2), (3, 4, 3)],
                             ids=["extra_layer", "wider_hidden", "other_class_count"])
    def test_layer_sizes_that_disagree_with_the_header(self, tmp_path, widths):
        # the header says D = 26 parameters and C = 2 classes, the widths
        # (3, 4, 2) of the payload; any other widths contradict it
        path = tmp_path / "g.dntk"
        dio.write_gradients(tiny_raw(sizes=(3, 4, 2)), path)
        raw = path.read_bytes()
        layers = struct.pack(f"<{1 + len(widths)}I", len(widths), *widths)
        path.write_bytes(raw[:23] + layers + raw[39:])
        with pytest.raises(ParseError, match="layer widths"):
            dio.read_gradients(path)

    def test_version_one_file_names_the_stages_to_rerun(self, tmp_path):
        # a version-1 file: 24-byte header with dtype and labels-kind bytes,
        # then f64 rows, (m, C) f64 labels and (m, C) f64 logits
        m, d, c = 2, 3, 2
        path = tmp_path / "g.dntk"
        path.write_bytes(struct.pack("<6sIIIIBB", dio.MAGIC, 1, m, d, c, 0, 0)
                         + b"\0" * 8 * (c * m * d + 2 * m * c))
        with pytest.raises(VersionMismatch, match="extract-grads.*project"):
            dio.read_gradients(path)

    @pytest.mark.parametrize("label", [2, -1])
    def test_class_id_outside_class_count(self, tmp_path, label):
        feats = tiny_feats(c=2, n=4)
        feats.labels[1] = label
        path = tmp_path / "g.dntk"
        dio.write_gradients(feats, path)
        with pytest.raises(ParseError, match=r"class ids outside \[0, 2\)"):
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


class TestRawRowsOneClassAtATime:
    """Raw rows come as a ClassRows of the backward pass's factors, from
    extraction and from a file; the class blocks they fill must be those
    of the whole (C, n, P) array filled at once, and their sketch the
    in-process one."""

    def net(self, activation):
        rng = np.random.default_rng(31)
        params = init_params([8, 33, 29, 5], seed=32, activation=activation)
        # nonzero biases so relu units sit on both sides of the kink
        params = params.with_theta(params.theta + 0.3 * rng.normal(size=params.param_count))
        # three 32-row batches and a 4-row one; at these widths the
        # backward pass rounds differently in batches of another size, so
        # the bits pin the batches as well as the fill
        x = rng.normal(size=(100, 8))
        return params, x, rng.integers(0, 5, size=100)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_extracted_rows_write_the_reference_bytes(self, tmp_path, activation):
        # a factor-backed [c], extracted or read back from a file, is the
        # reference fill at the shared batch, bit for bit
        params, x, labels = self.net(activation)
        ref = reference_per_class(params, x)
        feats = extract_features(params, x, labels)
        np.testing.assert_array_equal(class_blocks(feats.per_class), ref)
        dio.write_gradients(feats, tmp_path / "a.dntk")
        back = dio.read_gradients(tmp_path / "a.dntk")
        np.testing.assert_array_equal(class_blocks(back.per_class), ref)

    def test_projection_of_a_file_backed_split_is_the_whole_product(self, tmp_path):
        params, x, labels = self.net("tanh")
        ref = reference_per_class(params, x)
        dio.write_gradients(extract_features(params, x, labels), tmp_path / "g.dntk")
        raw = dio.read_gradients(tmp_path / "g.dntk")
        assert isinstance(raw.per_class, ClassRows) and raw.per_class.shape == ref.shape
        op = sample_orthonormal(params.param_count, 9, seed=33)
        staged = project_features(raw, op).per_class
        # the same contraction of the same factors as the in-process sketch
        np.testing.assert_array_equal(staged, sketched_features(params, x, labels, op).per_class)
        whole = op.scale * (ref @ op.q)
        assert np.abs(staged - whole).max() <= 1e-13 * np.abs(whole).max()

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_per_batch_reads_equal_whole_reads(self, tmp_path, activation):
        # 70 rows: two full row batches and a 6-row one, so the file's
        # slices start past row 0 and the last one stops at its last row
        params, x, labels = self.net(activation)
        x, labels = x[:70], labels[:70]
        live = extract_features(params, x, labels)
        dio.write_gradients(live, tmp_path / "g.dntk")
        read = dio.read_gradients(tmp_path / "g.dntk")
        # every record in one read: the payload after the header and widths
        record = factor_record(params.layer_sizes)
        payload_at = dio._HEADER.size + 4 * (1 + len(params.layer_sizes))
        whole = layer_factors(np.frombuffer((tmp_path / "g.dntk").read_bytes(), record,
                                            count=70, offset=payload_at))
        batches = [(layer_factors(f), layer_factors(l))
                   for f, l in zip(read.per_class.batches(), live.per_class.batches())]
        assert [len(from_file[0][0]) for from_file, _ in batches] == [32, 32, 6]
        for start, (from_file, from_live) in zip(range(0, 70, ROW_BATCH), batches):
            rows = slice(start, start + ROW_BATCH)
            # both sources hand out (dz, a) per layer in network order
            assert [a.shape[1] for _, a in from_file] == list(params.layer_sizes[:-1])
            for (dz, a), (dz_l, a_l), (dz_w, a_w) in zip(from_file, from_live, whole):
                # bit for bit: the same bytes as the whole read and the live backward pass
                assert dz.tobytes() == dz_w[rows].tobytes() == dz_l.tobytes()
                assert a.tobytes() == a_w[rows].tobytes() == a_l.tobytes()
        op = sample_orthonormal(params.param_count, 9, seed=33)
        np.testing.assert_array_equal(project_features(read, op).per_class,
                                      sketched_features(params, x, labels, op).per_class)

    def test_a_pass_holds_one_batch(self, tmp_path):
        # each batch is dropped before the next (deque(maxlen=0) keeps none),
        # so a pass that also held the previous batch while it read or made
        # the next one would peak a whole record batch higher
        params, x, labels = self.net("tanh")
        live = extract_features(params, x, labels)
        dio.write_gradients(live, tmp_path / "g.dntk")
        from_file = dio.read_gradients(tmp_path / "g.dntk").per_class
        one = ROW_BATCH * factor_record(params.layer_sizes).itemsize

        def pass_peak(rows):
            return traced_peak(lambda: collections.deque(rows.batches(), maxlen=0))

        assert pass_peak(from_file) < 1.5 * one
        # the backward pass's own temporaries come to about one more batch,
        # so a live pass over four batches is held to a one-batch pass's peak
        first = extract_features(params, x[:ROW_BATCH], labels[:ROW_BATCH])
        assert pass_peak(live.per_class) < pass_peak(first.per_class) + 0.5 * one

    def test_a_class_block_holds_one_batch(self, tmp_path):
        # rows[c] drops each batch before it reads or makes the next, so
        # beside its output it holds what a plain pass holds; one that kept
        # the previous batch would peak a whole record batch higher. The
        # default net's widths: at narrower ones the fill's own numpy
        # temporaries outweigh a record batch
        rng = np.random.default_rng(31)
        params = init_params([16, 64, 64, 10], seed=32)
        x, labels = rng.normal(size=(4 * ROW_BATCH, 16)), rng.integers(0, 10, size=4 * ROW_BATCH)
        live = extract_features(params, x, labels)
        dio.write_gradients(live, tmp_path / "g.dntk")
        from_file = dio.read_gradients(tmp_path / "g.dntk").per_class
        one = ROW_BATCH * factor_record(params.layer_sizes).itemsize
        block = 8 * x.shape[0] * params.param_count
        for rows in (from_file, live.per_class):
            plain = traced_peak(lambda: collections.deque(rows.batches(), maxlen=0))
            assert traced_peak(lambda: rows[3]) - block < plain + 0.6 * one

    def test_live_rows_copy_their_inputs(self, tmp_path):
        # the live backward pass runs on its own copies of the inputs and
        # theta, so changing the caller's arrays afterwards moves no row
        params, x, labels = self.net("tanh")
        feats = extract_features(params, x, labels)
        ref = class_blocks(feats.per_class)
        dio.write_gradients(feats, tmp_path / "before.dntk")
        x += 1.0
        params.theta[:] = 0.0
        np.testing.assert_array_equal(class_blocks(feats.per_class), ref)
        dio.write_gradients(feats, tmp_path / "after.dntk")
        assert (tmp_path / "after.dntk").read_bytes() == (tmp_path / "before.dntk").read_bytes()

    def test_raw_rows_are_written_back_over_their_own_file(self, tmp_path, monkeypatch):
        # the file is written aside and renamed into place, so rows read from
        # it go back over it byte for byte, under any of its names; a symlink
        # or a hard link is replaced, and g.dntk keeps its bytes
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "g.dntk"
        dio.write_gradients(tiny_raw(), "g.dntk")
        before = path.read_bytes()
        (tmp_path / "link.dntk").symlink_to(path)
        os.link(path, tmp_path / "hard.dntk")
        for name in ("g.dntk", "./g.dntk", "link.dntk", "hard.dntk"):
            dio.write_gradients(dio.read_gradients(name), name)
            assert (tmp_path / name).read_bytes() == before
            assert path.read_bytes() == before
        assert not (tmp_path / "link.dntk").is_symlink()
        assert sorted(f.name for f in tmp_path.iterdir()) == ["g.dntk", "hard.dntk", "link.dntk"]

    def test_class_index_out_of_range(self, tmp_path):
        dio.write_gradients(tiny_raw(sizes=(3, 4, 2)), tmp_path / "g.dntk")
        rows = dio.read_gradients(tmp_path / "g.dntk").per_class
        np.testing.assert_array_equal(rows[-1], rows[1])
        with pytest.raises(IndexError):
            rows[2]
        with pytest.raises(TypeError):
            rows[:, 0]

    def test_file_deleted_after_read(self, tmp_path):
        # the factors stay in their file and are read per row batch, so
        # rows whose file is gone are refused when they are read, not held
        path = tmp_path / "g.dntk"
        dio.write_gradients(tiny_raw(), path)
        feats = dio.read_gradients(path)
        path.unlink()
        with pytest.raises(IoError):
            feats.per_class[0]
        with pytest.raises(IoError):
            project_features(feats, sample_orthonormal(feats.width, 4, seed=1))

    def test_file_truncated_after_read(self, tmp_path):
        # each pass checks the size again, so a file that lost even its
        # last byte (part of a logit) is refused before any row slice is read
        path = tmp_path / "g.dntk"
        dio.write_gradients(tiny_raw(), path)
        feats = dio.read_gradients(path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(TruncatedFile):
            feats.per_class[0]
        with pytest.raises(TruncatedFile):
            project_features(feats, sample_orthonormal(feats.width, 4, seed=1))


    def test_file_replaced_after_read(self, tmp_path):
        # a whole file of other extents in its place: the size fits its own
        # header, but the header is not the one read_gradients checked
        path = tmp_path / "g.dntk"
        dio.write_gradients(tiny_raw(n=5), path)
        feats = dio.read_gradients(path)
        dio.write_gradients(tiny_raw(n=6), path)
        with pytest.raises(ParseError, match="header changed"):
            feats.per_class[0]


def _header(m=2, d=3, c=2, kind=0):
    return dio._HEADER.pack(dio.MAGIC, dio.VERSION, m, d, c, kind)


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
    elif case == "bad_kind":  # kinds are 0 (raw) and 1 (sketched)
        path.write_bytes(_header(kind=2) + b"\x00" * 8 * (2 * 2 * 3 + 2 + 2 * 2))
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
        ("bad_kind", ParseError),
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
    "selection": lambda path: dio.read_selection(path, 10, "random"),
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
    np.testing.assert_array_equal(dio.read_selection(path, 8, "random"), [4, 0, 7])
    with pytest.raises(IndexOutOfRange):
        dio.read_selection(path, 7, "random")
    # the selection records the method that made it
    with pytest.raises(ParseError, match="select-baseline --method fps"):
        dio.read_selection(path, 8, "fps")
    np.savez(path, indices=np.array([[0, 1]]))
    with pytest.raises(ParseError):
        dio.read_selection(path, 8, "random")
    np.savez(path, indices=np.array([0.0, 1.0]))
    with pytest.raises(ParseError):
        dio.read_selection(path, 8, "random")
    # a selection is distinct ids: a repeated one would fit a duplicated row
    dio.write_selection(SelectionResult(np.array([3, 3, 1]), "random", 3), path)
    with pytest.raises(ParseError, match="repeat"):
        dio.read_selection(path, 8, "random")


def test_gradient_file_io_holds_one_copy(tmp_path):
    # 4 classes x 256 rows x 1024 wide: an 8 MiB payload of sketched rows,
    # read straight into the returned array and written from it
    feats = tiny_feats(seed=4, c=4, n=256, d=1024)
    payload = 8 * (feats.per_class.size + feats.labels.size + feats.model_logits.size)
    path = tmp_path / "g.dntk"
    write_peak = traced_peak(lambda: dio.write_gradients(feats, path))
    assert path.stat().st_size == dio._HEADER.size + payload
    read_peak = traced_peak(lambda: dio.read_gradients(path))
    assert read_peak <= 1.1 * payload
    assert write_peak <= 0.05 * payload
    # raw rows: 256 and 1024 rows of a [16, 256, 256, 10] net's factors,
    # 11.8 and 47 MB payloads (their rows would be 146 and 585 MiB). The
    # backward pass runs per row batch as the rows are written, so writing
    # holds one batch of factors and its forward pass whatever n is;
    # reading leaves the factors in the file and holds the class ids and
    # logits (22 KiB at 256 rows) and the objects around them
    sizes, write_peaks = (16, 256, 256, 10), []
    for n in (256, 1024):
        raw = tiny_raw(seed=4, sizes=sizes, n=n)
        write_peaks.append(traced_peak(lambda: dio.write_gradients(raw, path)))
        assert path.stat().st_size == dio.gradient_file_bytes(n, raw.width, 10, sizes)
    assert traced_peak(lambda: dio.read_gradients(path)) <= 2 * 8 * (1024 + 1024 * 10)
    assert write_peaks[1] <= 1.1 * write_peaks[0]


class TestTable:
    def test_header_then_cells(self, tmp_path):
        # floats (numpy's too) at 17 significant digits, every other cell as
        # str: ints, and labels holding commas as they are
        path = tmp_path / "t.csv"
        rows = [(0, 1 / 3, 7, "d[H=5,tv=0.9]", np.float64(0.1)), (1, 2.0, 0, "x", 1e-300)]
        dio.write_table(rows, path, ("a", "b", "c", "d", "e"))
        assert path.read_bytes() == (b"a,b,c,d,e\n"
                                     b"0,0.33333333333333331,7,d[H=5,tv=0.9],0.10000000000000001\n"
                                     b"1,2,0,x,1e-300\n")

    def test_append_after_a_row_without_its_newline(self, tmp_path):
        # a row is added by writing the whole table again, so a last row that
        # lost its newline gets it back and the new row takes a line of its own
        path = tmp_path / "t.csv"
        dio.write_table([(1, 0.5)], path, ("a", "b"))
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        dio.write_table([(1, 0.5), (2, 0.25)], path, ("a", "b"))
        assert path.read_bytes() == b"a,b\n1,0.5\n2,0.25\n"

    def test_unwritable_path_is_an_io_error(self, tmp_path):
        with pytest.raises(IoError):
            dio.write_table([], tmp_path / "missing" / "t.csv", ("a",))


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

    def test_roundtrip_sweep_label_with_commas(self, tmp_path):
        rows = [self.row(method="distill[H=5,tv=0.9,tg=0.5]"),
                self.row(method="random[H=5,tv=0.9,tg=0.5]", mse=1 / 3)]
        path = tmp_path / "r.csv"
        dio.write_report(rows, path)
        assert path.read_text().splitlines()[1].startswith("distill[H=5,tv=0.9,tg=0.5],3,5,")
        assert dio.read_report(path) == rows

    def test_seventeen_digit_floats(self, tmp_path):
        path = tmp_path / "r.csv"
        dio.write_report([self.row(mse=1 / 3)], path)
        assert "0.33333333333333331" in path.read_text()

    @pytest.mark.parametrize("column, cell", [
        ("seed", "abc"), ("seed", "1.5"), ("s", ""), ("s", "7e2"),
        ("fidelity", "high"), ("recon_error", "n/a"),
    ])
    def test_bad_cell_is_a_parse_error_naming_file_and_row(self, tmp_path, column, cell):
        path = tmp_path / "r.csv"
        dio.write_report([self.row(), self.row(seed=9)], path)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[dio.REPORT_COLUMNS.index(column)] = cell
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=rf"r\.csv: row 2\b"):
            dio.read_report(path)

    def test_append_after_a_row_without_its_newline(self, tmp_path):
        # evaluate adds a row by reading the report back and writing it whole;
        # the method label may hold commas, so a glued row would read back
        path = tmp_path / "r.csv"
        dio.write_report([self.row()], path)
        before = path.read_bytes()
        path.write_bytes(before.rstrip(b"\n"))
        dio.write_report(dio.read_report(path) + [self.row(seed=9)], path)
        assert path.read_bytes().startswith(before)
        assert dio.read_report(path) == [self.row(), self.row(seed=9)]

    def test_glued_row_is_a_parse_error(self, tmp_path):
        # a row that lost its newline before the next was appended: split from
        # the right, the first row and the second's label share one label cell
        path = tmp_path / "r.csv"
        head = ",".join(dio.REPORT_COLUMNS)
        path.write_text(f"{head}\na,1,2,1,1,1,1,1,1,1,1a,1,2,1,1,1,1,1,1,1,1\n")
        with pytest.raises(ParseError, match="row 1"):
            dio.read_report(path)

    def test_label_with_a_row_of_commas_is_refused_before_writing(self, tmp_path):
        path = tmp_path / "r.csv"
        dio.write_report([self.row()], path)
        before = path.read_bytes()
        glued = "a" + "," * (len(dio.REPORT_COLUMNS) - 1)
        with pytest.raises(InputError):
            dio.write_report([self.row(seed=9), self.row(method=glued)], path)
        assert path.read_bytes() == before
        # one comma fewer is an ordinary label that reads back
        label = glued[:-1]
        dio.write_report([self.row(method=label)], path)
        assert dio.read_report(path) == [self.row(method=label)]

    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_label_with_a_line_break_is_refused_before_writing(self, tmp_path, brk):
        # a line break ends the row early, and read_report would then refuse
        # the whole file
        path = tmp_path / "r.csv"
        dio.write_report([self.row()], path)
        before = path.read_bytes()
        with pytest.raises(InputError, match="line break"):
            dio.write_report([self.row(seed=9), self.row(method=f"a{brk}b")], path)
        assert path.read_bytes() == before
        assert dio.read_report(path) == [self.row()]


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
            {"eps_qr": 1.0},
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
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        assert dio.read_config(path) == cfg

    def test_scale_kind_takes_what_the_kernel_takes(self):
        # validate and kernel.scale_factor check the one list, SCALE_CHOICES
        for kind in SCALE_CHOICES:
            assert dio.config_from_dict({"scale_kind": kind}).scale_kind == kind
            scale_factor(kind, 4)
        with pytest.raises(InputError) as exc:
            dio.config_from_dict({"scale_kind": "inv_sqrt_k"})
        assert str(list(SCALE_CHOICES)) in str(exc.value)

    def test_budgets_is_unknown_field(self):
        with pytest.raises(UnknownField):
            dio.config_from_dict({"budgets": [5, 10]})


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
        # sketch.json records (source_dim, target_dim, seed); the matrix is
        # regenerated from them, not stored
        op = sample_orthonormal(40, 8, seed=11)
        path = tmp_path / "s.json"
        dio.write_sketch_meta(op.record, path)
        meta = json.loads(path.read_text())
        assert meta == {"source_dim": 40, "target_dim": 8, "seed": 11}
        assert SketchRecord(**meta) == op.record
        back = sample_orthonormal(**meta)
        np.testing.assert_array_equal(back.q, op.q)
        assert back.scale == op.scale

    def test_distilled(self, tmp_path):
        rng = np.random.default_rng(2)
        feats = feats_from_blocks(rng.normal(size=(2, 8, 6)))
        dg, report = distill(feats, h=2, tau_v=0.9, tau_g=0.99, seed=0)
        assert report.gap_set.size  # the empty case is built from this one below
        no_gaps = dataclasses.replace(report, gap_set=np.zeros(0, dtype=np.int64))
        for rep in (report, no_gaps):
            path = tmp_path / "dg.npz"
            dio.write_distilled(dg, rep, path)
            dg2, report2 = dio.read_distilled(path)
            np.testing.assert_array_equal(dg2.phi_hat, dg.phi_hat)
            np.testing.assert_array_equal(dg2.y_hat, dg.y_hat)
            np.testing.assert_array_equal(dg2.provenance, dg.provenance)
            np.testing.assert_array_equal(report2.gap_set, rep.gap_set)
            np.testing.assert_array_equal(report2.local_ranks, rep.local_ranks)
            for a in (dg2.provenance, report2.gap_set, report2.local_ranks):
                assert a.dtype == np.int64
            assert report2.tau_v == rep.tau_v

    @pytest.mark.parametrize("tau_g", [0.0, 0.99])
    def test_distilled_roundtrip_is_exact(self, tmp_path, tau_g):
        # what read_distilled returns is what distill returned, values and
        # dtypes alike, and writing it again reproduces the file's bytes;
        # tau_g = 0 leaves no gap directions, 0.99 some
        rng = np.random.default_rng(2)
        feats = feats_from_blocks(rng.normal(size=(2, 8, 6)))
        made = distill(feats, h=2, tau_v=0.9, tau_g=tau_g, seed=0)
        assert (made[1].gap_set.size > 0) == (tau_g > 0)
        dio.write_distilled(*made, tmp_path / "a.npz")
        back = dio.read_distilled(tmp_path / "a.npz")
        for want, got in zip(made, back):
            assert vars(got).keys() == vars(want).keys()
            for name, value in vars(want).items():
                read = getattr(got, name)
                assert type(read) is type(value), name
                assert np.asarray(read).dtype == np.asarray(value).dtype, name
                np.testing.assert_array_equal(read, value)
        dio.write_distilled(*back, tmp_path / "b.npz")
        assert (tmp_path / "b.npz").read_bytes() == (tmp_path / "a.npz").read_bytes()

    def test_integer_valued_reals_stay_float(self, tmp_path):
        # the config takes tau_v = 1, tau_g = 0 and lambda_reg = 0 as JSON
        # integers; the archives still store them as the floats their
        # schemas ask for
        rng = np.random.default_rng(2)
        feats = feats_from_blocks(rng.normal(size=(2, 8, 6)))
        dg, report = distill(feats, h=2, tau_v=1, tau_g=0, seed=0)
        dio.write_distilled(dg, report, tmp_path / "dg.npz")
        _, back = dio.read_distilled(tmp_path / "dg.npz")
        assert (back.tau_v, back.tau_g) == (1.0, 0.0)
        model = fit(rng.normal(size=(2, 4, 10)), rng.normal(size=(4, 2)),
                    lambda_reg=0, scale_kind="none")
        dio.write_krr(model, tmp_path / "k.npz")
        assert dio.read_krr(tmp_path / "k.npz").lambda_reg == 0.0

    def test_krr(self, tmp_path):
        rng = np.random.default_rng(3)
        basis = rng.normal(size=(6, 10, 2)).transpose(2, 0, 1)
        y = rng.normal(size=(6, 2))
        model = fit(basis, y, lambda_reg=0.01, scale_kind="none")
        path = tmp_path / "k.npz"
        dio.write_krr(model, path)
        back = dio.read_krr(path)
        np.testing.assert_array_equal(back.alpha, model.alpha)
        np.testing.assert_array_equal(back.basis, model.basis)
        assert back.scale_kind == "none"
        assert back.lambda_reg == 0.01

    def test_krr_holds_no_eigensystem(self, tmp_path):
        # each class's eigensystem is rebuilt from the basis when it is
        # scored, so an archive of a build that stored them (eig_values and
        # the (C, s, s) eig_vectors) reads back as the same model
        model = fit(np.ones((2, 3, 4)) + np.eye(3, 4), np.ones((3, 2)), lambda_reg=0.01)
        path = tmp_path / "k.npz"
        dio.write_krr(model, path)
        with np.load(path) as z:
            assert z.files == ["basis", "alpha", "lambda_reg", "scale_kind"]
            arrays = dict(z)
        np.savez(path, **arrays, eig_values=np.ones((2, 3)), eig_vectors=np.ones((2, 3, 3)))
        back = dio.read_krr(path)
        np.testing.assert_array_equal(back.basis, model.basis)
        np.testing.assert_array_equal(back.alpha, model.alpha)

    def test_krr_archive_with_targets_reads_back(self, tmp_path):
        # older builds also stored the fit's (s, C) targets; the reader
        # reads only the schema's keys, so such an archive still loads
        model = fit(np.ones((2, 3, 4)) + np.eye(3, 4), np.ones((3, 2)), lambda_reg=0.01)
        path = tmp_path / "k.npz"
        dio.write_krr(model, path)
        with np.load(path) as z:
            arrays = dict(z)
        np.savez(path, **{**arrays, "targets": np.ones((3, 2))})
        back = dio.read_krr(path)
        np.testing.assert_array_equal(back.alpha, model.alpha)
        assert "targets" not in {f.name for f in dataclasses.fields(back)}


def _valid_bundles(tmp_path):
    """One file per npz schema, written by its writer, and its typed reader."""
    rng = np.random.default_rng(5)
    feats = feats_from_blocks(rng.normal(size=(2, 8, 6)))
    dg, report = distill(feats, h=2, tau_v=0.95, tau_g=0.5, seed=0)
    model = fit(feats.per_class, feats.model_logits, lambda_reg=0.01, scale_kind="none")
    writers = {
        "DATASET": (lambda p: dio.write_dataset(gen_gaussian_mixture(3, 4, 5, 0.5, seed=0), p),
                    dio.read_dataset),
        "MODEL": (lambda p: dio.write_model(init_params([5, 8, 2], seed=1), p), dio.read_model),
        "DISTILLED": (lambda p: dio.write_distilled(dg, report, p), dio.read_distilled),
        "KRR": (lambda p: dio.write_krr(model, p), dio.read_krr),
        "SELECTION": (
            lambda p: dio.write_selection(SelectionResult(np.array([4, 0, 7]), "random", 3), p),
            lambda p: dio.read_selection(p, 8, "random"),
        ),
    }
    out = {}
    for name, (write, read) in writers.items():
        path = tmp_path / f"{name}.npz"
        write(path)
        out[name] = (path, read)
    return out


def _retype(a):
    # string keys become numbers, every other key a string
    return np.zeros(a.shape) if a.dtype.kind == "U" else a.astype(str)


def _nan_first(a):
    a = a.copy()
    a.flat[0] = np.nan
    return a


_CORRUPTIONS = {"dropped": None, "retyped": _retype, "extra_axis": lambda a: a[None],
                "nan": _nan_first}
_SCHEMA_CASES = [
    (name, key, how)
    for name in ("DATASET", "MODEL", "DISTILLED", "KRR", "SELECTION")
    for key, (kinds, _) in getattr(dio, name).items()
    for how in _CORRUPTIONS
    if how != "nan" or kinds == "f"
]


def test_schemas_match_writers(tmp_path):
    for name, (path, read) in _valid_bundles(tmp_path).items():
        with np.load(path) as z:
            assert z.files == list(getattr(dio, name)), name
        read(path)


@pytest.mark.parametrize("name, key, how", _SCHEMA_CASES)
def test_every_schema_key_is_checked(tmp_path, name, key, how):
    path, read = _valid_bundles(tmp_path)[name]
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    if how == "dropped":
        del arrays[key]
    else:
        arrays[key] = _CORRUPTIONS[how](arrays[key])
    np.savez(path, **arrays)
    with pytest.raises(ParseError):
        read(path)


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
