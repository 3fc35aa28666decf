import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dntk
from dntk import sketch
from dntk.errors import BadEps, DimMismatch, EmptyInput, InsufficientMemory, KTooLarge
from dntk.sketch import available_memory, jl_dimension, project_features, sample_orthonormal
from dntk.tangent import (ClassRows, GradientFeatures, extract_features, factor_record,
                          gen_gaussian_mixture, init_params, layer_factors)


class TestJlDimension:
    def test_known_values(self):
        # floor(8 ln n / eps^2) + 1, frozen at two points
        assert jl_dimension(round(math.e ** 8), 1.0) == 65
        assert jl_dimension(1000, 0.5) == 222

    def test_strictly_greater_than_bound(self):
        for n, eps in [(10, 0.3), (500, 0.9), (10**6, 0.05)]:
            k = jl_dimension(n, eps)
            assert k > 8 * math.log(n) / eps**2
            assert k - 1 <= 8 * math.log(n) / eps**2

    @given(st.integers(2, 10**6), st.floats(0.01, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_eps(self, n, eps):
        assert jl_dimension(n, eps) >= jl_dimension(n, min(1.0, eps * 1.5))

    def test_bad_inputs(self):
        with pytest.raises(EmptyInput):
            jl_dimension(1, 0.5)
        for eps in (0.0, -0.1, 1.5):
            with pytest.raises(BadEps):
                jl_dimension(100, eps)


class TestSampleOrthonormal:
    def test_columns_orthonormal(self):
        op = sample_orthonormal(40, 12, seed=0)
        np.testing.assert_allclose(op.q.T @ op.q, np.eye(12), atol=1e-10)

    def test_deterministic(self):
        a = sample_orthonormal(30, 8, seed=5)
        b = sample_orthonormal(30, 8, seed=5)
        np.testing.assert_array_equal(a.q, b.q)
        assert not np.array_equal(a.q, sample_orthonormal(30, 8, seed=6).q)

    def test_scale_invariant(self):
        op = sample_orthonormal(50, 10, seed=1)
        assert op.scale**2 * 10 <= 50 * (1 + 1e-12)
        np.testing.assert_allclose(op.scale, math.sqrt(50 / 10))

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            sample_orthonormal(10, 11, seed=0)

    def test_square_case_orthogonal(self):
        op = sample_orthonormal(15, 15, seed=2)
        np.testing.assert_allclose(op.q @ op.q.T, np.eye(15), atol=1e-10)
        assert op.scale == 1.0

    @pytest.mark.parametrize(
        "p_dim, k",
        [
            (300, 20),  # tall
            (80, 80),  # square
            (64, 63),  # k = P - 1
            (1, 1),
            (11914, 256),  # accept09's sketch
            (5898, 553),  # the default config's sketch
        ],
    )
    def test_orthonormal_to_working_accuracy(self, p_dim, k):
        q = sample_orthonormal(p_dim, k, seed=p_dim + k).q
        assert q.shape == (p_dim, k)
        assert np.abs(q.T @ q - np.eye(k)).max() <= 1e-12

    def test_same_span_as_the_gaussian_draw(self):
        # the sketch is the Q of the seeded draw's QR, up to column signs
        op = sample_orthonormal(40, 7, seed=3)
        gauss = np.random.default_rng(3).normal(size=(40, 7))
        q_ref, _ = np.linalg.qr(gauss)
        signs = np.sign(np.sum(q_ref * op.q, axis=0))
        np.testing.assert_allclose(op.q, q_ref * signs, atol=1e-13)

    def test_peak_memory_stays_near_the_sketch(self):
        # the draw is orthonormalized in place: peak RSS grows by about one
        # P x k array, where a LAPACK QR copies it several times
        code = (
            "import resource, sys\n"
            "from dntk.sketch import sample_orthonormal\n"
            "sample_orthonormal(64, 8, seed=0)  # BLAS start-up buffers\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "q = sample_orthonormal(20000, 300, seed=1).q\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "unit = 1 if sys.platform == 'darwin' else 1024\n"
            "print((after - before) * unit / q.nbytes)\n"
        )
        src = str(Path(dntk.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True, timeout=120)
        assert float(done.stdout) <= 1.5


def raw_rows(sizes, n, seed):
    """Raw per-logit rows of a seeded network at n random inputs, held as
    extraction holds them: the backward pass's factors."""
    rng = np.random.default_rng(seed)
    params = init_params(sizes, seed=seed)
    return extract_features(params, rng.normal(size=(n, sizes[0])),
                            rng.integers(0, sizes[-1], size=n))


class TestProjectVector:
    """The sketch of single raw gradient rows, through project_features."""

    def test_isometry_at_full_width(self):
        op = sample_orthonormal(20, 20, seed=3)
        feats = raw_rows([4, 4], n=5, seed=4)  # P = 20
        sk = project_features(feats, op).per_class
        for c in range(4):
            gap = np.linalg.norm(sk[c], axis=1) - np.linalg.norm(feats.per_class[c], axis=1)
            assert np.abs(gap).max() < 1e-10

    def test_zero_maps_to_zero(self):
        op = sample_orthonormal(25, 6, seed=5)
        # the factor record of a [4, 5] layer (P = 25) whose logit gradients vanish
        factors = np.zeros(1, dtype=factor_record((4, 5)))
        layer_factors(factors)[0][1][...] = 1.0
        rows = ClassRows((4, 5), 1, lambda: iter([factors]))
        feats = GradientFeatures(rows, np.zeros(1, dtype=np.int64), np.zeros((1, 5)))
        np.testing.assert_array_equal(project_features(feats, op).per_class, np.zeros((5, 1, 6)))

    def test_unbiased_inner_products(self):
        # E over seeds of <g(u), g(v)> equals <u, v>; scale sqrt(P/k) makes it so
        p_dim, k = 60, 12
        feats = raw_rows([5, 5, 5], n=2, seed=6)  # P = 60; u, v: class 1 of both samples
        u, v = feats.per_class[1]
        truth = float(u @ v)
        est = []
        for op in (sample_orthonormal(p_dim, k, seed=s) for s in range(400)):
            gu, gv = project_features(feats, op).per_class[1]
            est.append(float(gu @ gv))
        mean = float(np.mean(est))
        sem = float(np.std(est) / math.sqrt(len(est)))
        assert abs(mean - truth) < 4 * sem + 1e-9

    def test_dim_mismatch(self):
        op = sample_orthonormal(10, 4, seed=7)
        with pytest.raises(DimMismatch):
            project_features(raw_rows([10, 1], n=1, seed=8), op)  # P = 11


class TestProjectFeatures:
    def make_feats(self):
        params = init_params([5, 8, 3], seed=0)
        data = gen_gaussian_mixture(3, 4, 5, 0.5, seed=1)
        return params, extract_features(params, data.inputs, data.labels)

    def test_projects_each_class_block(self):
        params, feats = self.make_feats()
        op = sample_orthonormal(params.param_count, 9, seed=2)
        sk = project_features(feats, op)
        assert not sk.raw
        assert sk.per_class.shape == (3, 12, 9)
        # row-wise: sketched row = scale * Q^T row
        expected = op.scale * feats.per_class[1][3] @ op.q
        np.testing.assert_allclose(sk.per_class[1, 3], expected, atol=1e-12)

    def test_labels_and_logits_carried(self):
        params, feats = self.make_feats()
        op = sample_orthonormal(params.param_count, 6, seed=3)
        sk = project_features(feats, op)
        np.testing.assert_array_equal(sk.labels, feats.labels)
        np.testing.assert_array_equal(sk.model_logits, feats.model_logits)

    def test_rejects_double_sketch(self):
        params, feats = self.make_feats()
        op = sample_orthonormal(params.param_count, 6, seed=4)
        sk = project_features(feats, op)
        op2 = sample_orthonormal(6, 3, seed=5)
        with pytest.raises(DimMismatch):
            project_features(sk, op2)

    def test_rejects_wrong_width(self):
        _, feats = self.make_feats()
        op = sample_orthonormal(feats.width + 1, 4, seed=6)
        with pytest.raises(DimMismatch):
            project_features(feats, op)

    def test_preserves_kernel_at_full_width(self):
        params, feats = self.make_feats()
        op = sample_orthonormal(params.param_count, params.param_count, seed=7)
        sk = project_features(feats, op)
        for c in range(3):
            k_raw = feats.per_class[c] @ feats.per_class[c].T
            k_sk = sk.per_class[c] @ sk.per_class[c].T
            np.testing.assert_allclose(k_sk, k_raw, rtol=1e-9, atol=1e-10)
        assert feats.raw


class TestMemoryRefusal:
    def test_refuses_a_draw_larger_than_free_memory(self, monkeypatch):
        need = 8 * 40 * 8
        ref = sample_orthonormal(40, 8, seed=3)
        monkeypatch.setattr(sketch, "available_memory", lambda: need - 1)
        with pytest.raises(InsufficientMemory,
                           match=f"needs {need} bytes, {need - 1} bytes of memory"):
            sample_orthonormal(40, 8, seed=3)
        # an exact fit is drawn, and so is any draw when no probe can be read
        for left in (need, None):
            monkeypatch.setattr(sketch, "available_memory", lambda: left)
            np.testing.assert_array_equal(sample_orthonormal(40, 8, seed=3).q, ref.q)

    def test_probe_takes_the_tighter_of_meminfo_and_cgroup(self, monkeypatch):
        files = {
            "/proc/meminfo": "MemTotal:  100 kB\nMemAvailable:  50 kB\n",
            "/proc/self/cgroup": "0::/job\n",
            "/sys/fs/cgroup/job/memory.max": "40000\n",
            "/sys/fs/cgroup/job/memory.current": "1000\n",
        }

        def read_text(path, *args, **kwargs):
            if str(path) not in files:
                raise FileNotFoundError(str(path))
            return files[str(path)]

        monkeypatch.setattr(Path, "read_text", read_text)
        assert available_memory() == 39000
        files["/sys/fs/cgroup/job/memory.max"] = "max\n"
        assert available_memory() == 50 * 1024
        del files["/proc/meminfo"]
        assert available_memory() is None
        files["/sys/fs/cgroup/job/memory.max"] = "40000\n"
        assert available_memory() == 39000

    @staticmethod
    def fake_tree(root, cgroup, files):
        """A /proc and /sys tree under root: MemAvailable 50 kB, the given
        /proc/self/cgroup lines and cgroup files."""
        for rel, text in {"proc/meminfo": "MemTotal:  100 kB\nMemAvailable:  50 kB\n",
                          "proc/self/cgroup": "".join(ln + "\n" for ln in cgroup),
                          **files}.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)

    def test_probe_reads_a_cgroup_v1_memory_controller(self, tmp_path):
        # a hybrid host: the memory controller on v1, an empty v2 group
        v1 = "sys/fs/cgroup/memory/jobs/a"
        self.fake_tree(tmp_path, ["4:memory:/jobs/a", "1:cpu:/", "0::/"], {
            f"{v1}/memory.limit_in_bytes": "30000\n",
            f"{v1}/memory.usage_in_bytes": "2000\n",
            # another controller's files are not read
            "sys/fs/cgroup/cpu/memory.limit_in_bytes": "10\n",
            "sys/fs/cgroup/cpu/memory.usage_in_bytes": "0\n",
        })
        assert available_memory(tmp_path) == 28000
        # an unlimited v1 group leaves MemAvailable as the bound
        (tmp_path / v1 / "memory.limit_in_bytes").write_text("9223372036854771712\n")
        assert available_memory(tmp_path) == 50 * 1024
        # an unreadable usage file skips the group
        (tmp_path / v1 / "memory.limit_in_bytes").write_text("30000\n")
        (tmp_path / v1 / "memory.usage_in_bytes").unlink()
        assert available_memory(tmp_path) == 50 * 1024

    def test_probe_takes_the_smallest_of_v1_v2_and_meminfo(self, tmp_path):
        v2 = "sys/fs/cgroup/job"
        self.fake_tree(tmp_path, ["7:blkio,memory:/job", "0::/job"], {
            "sys/fs/cgroup/blkio,memory/job/memory.limit_in_bytes": "40000\n",
            "sys/fs/cgroup/blkio,memory/job/memory.usage_in_bytes": "1000\n",
            f"{v2}/memory.max": "36000\n",
            f"{v2}/memory.current": "1000\n",
        })
        assert available_memory(tmp_path) == 35000
        (tmp_path / v2 / "memory.max").write_text("max\n")
        assert available_memory(tmp_path) == 39000
        (tmp_path / "proc/self/cgroup").unlink()
        assert available_memory(tmp_path) == 50 * 1024
        (tmp_path / "proc/meminfo").unlink()
        assert available_memory(tmp_path) is None

    def test_probe_reads_this_machine(self):
        left = available_memory()
        assert left is None or isinstance(left, int)
