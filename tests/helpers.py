"""Small constructors shared by the test modules."""

import tracemalloc

import numpy as np

from dntk.errors import ZeroTrace
from dntk.numerics import as_matrix, thin_svd
from dntk.sketch import COL_BLOCK
from dntk.tangent import ROW_BATCH, GradientFeatures, _logit_backprop, layer_factors, one_hot

# sample counts around ROW_BATCH (32): a lone partial batch (1, 23), one
# exact batch, a full batch and a one-row last one, and three full batches
# and a partial last one
N_AROUND_ROW_BATCH = (1, 23, ROW_BATCH, ROW_BATCH + 1, 100)


def feats_from_blocks(blocks, labels=None):
    """GradientFeatures from an explicit (C, n, D) array of gradient rows,
    which makes them sketched rows: raw ones are a ClassRows."""
    per_class = np.asarray(blocks, dtype=np.float64)
    c, n, _ = per_class.shape
    ids = np.zeros(n, dtype=np.int64) if labels is None else np.asarray(labels, dtype=np.int64)
    logits = one_hot(ids, c) + 0.1  # stand-in logits that still carry the labels
    return GradientFeatures(per_class, ids, logits)


def class_blocks(per_class) -> np.ndarray:
    """Every class block of per-logit rows stacked into one (C, n, width)
    array, whether they come as an array or one class at a time (a
    ClassRows)."""
    return np.stack([per_class[c] for c in range(per_class.shape[0])])


def positioned_backprop(params, xb):
    """(pos, dz, a) per layer, last layer first, for the (dz, a) factors of
    the record batch _logit_backprop fills: pos is the offset of the
    layer's weight block in theta, its bias block following. The offsets
    are counted down from theta's size and the factors' widths here, not
    read from tangent.param_blocks, so a wrong block there fails the
    references built on these."""
    pos = params.theta.size
    for dz, a in layer_factors(_logit_backprop(params, xb))[::-1]:
        pos -= dz.shape[2] * (a.shape[1] + 1)
        yield pos, dz, a


def reference_per_class(params, x):
    """The (C, n, P) per-logit gradients of x filled whole, batch by batch,
    each layer's weight block one multiply over every class at once: the
    materializing fill extract_features made before it kept its rows as
    factors, and the reference the class blocks those factors fill are
    checked against bit for bit at the one row batch, ROW_BATCH."""
    xb = np.asarray(x, dtype=np.float64)
    c, n = params.class_count, xb.shape[0]
    out = np.empty((c, n, params.param_count))
    for start in range(0, n, ROW_BATCH):
        rows = out[:, start : start + ROW_BATCH]
        for pos, dz, a in positioned_backprop(params, xb[start : start + ROW_BATCH]):
            fan_out, fan_in = dz.shape[2], a.shape[1]
            w_end = pos + fan_out * fan_in
            dz_c = dz.transpose(1, 0, 2)  # (C, b, fan_out)
            np.multiply(dz_c[:, :, :, None], a[None, :, None, :],
                        out=rows[:, :, pos:w_end].reshape(c, -1, fan_out, fan_in))
            rows[:, :, w_end : w_end + fan_out] = dz_c
    return out


def traced_peak(fn):
    """Peak bytes traced while fn runs, above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def orthonormal_rows_basis(rows, eps_rel: float = 1e-10) -> np.ndarray:
    """Orthonormal basis for the span of a set of row vectors, by SVD: the
    reference metrics.eig_rows_basis is tested against."""
    r = as_matrix(rows, "rows")
    svd = thin_svd(r.T)
    if svd.singulars.size == 0 or svd.singulars[0] <= 0.0:
        raise ZeroTrace("rows span nothing")
    keep = svd.singulars > eps_rel * svd.singulars[0]
    return svd.left[:, keep]


def fused_sketch_per_batch(params, x, op):
    """The fused sketch of x's per-logit Jacobian, (C, n, k), with every
    batch, layer and column block in freshly allocated arrays: a zeroed
    accumulator per batch, a new T = a Q_l + Q_b and a new dz @ T per layer
    and block of COL_BLOCK sketch columns, and a scaled copy per batch. The
    reference pipeline.sketched_features is checked against bit for bit."""
    xb = np.asarray(x, dtype=np.float64)
    n, k = xb.shape[0], op.target_dim
    out = np.empty((params.class_count, n, k))
    for start in range(0, n, ROW_BATCH):
        rows = xb[start : start + ROW_BATCH]
        sk = np.zeros((rows.shape[0], params.class_count, k))
        for pos, dz, a in positioned_backprop(params, rows):
            fan_out, fan_in = dz.shape[2], a.shape[1]
            w_end = pos + fan_out * fan_in
            q_l = op.q[pos:w_end].reshape(fan_out, fan_in, k)
            for j0 in range(0, k, COL_BLOCK):
                cols = slice(j0, j0 + COL_BLOCK)
                t = a @ q_l[:, :, cols]  # (fan_out, b, block width)
                t += op.q[w_end : w_end + fan_out, None, cols]
                sk[:, :, cols] += dz @ t.transpose(1, 0, 2)
        out[:, start : start + ROW_BATCH] = (op.scale * sk).transpose(1, 0, 2)
    return out


def clustered_rows(sizes, dim, seed, noise=0.05, scale=1.0):
    """Rows grouped around mutually orthogonal block centers.

    Returns (rows, assignments): gram of rows is near block-diagonal.
    """
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    assert dim >= len(sizes)
    centers = np.zeros((len(sizes), dim))
    for b in range(len(sizes)):
        centers[b, b] = scale
    rows = np.zeros((n, dim))
    assign = np.zeros(n, dtype=int)
    start = 0
    for b, sz in enumerate(sizes):
        rows[start:start + sz] = centers[b] + noise * rng.normal(size=(sz, dim))
        assign[start:start + sz] = b
        start += sz
    return rows, assign


def kmeans_restart_loop(points, k, seed):
    """kmeans_fit's restarts run one after another from the same k-means++
    seeds, each Lloyd update a loop of per-centroid masks and means: the
    reference the batched form is checked against. Returns (assignments,
    centroids, inertia)."""
    from dntk.cluster import KMEANS_ITERS, KMEANS_RESTARTS, _kmeans_pp_init

    def dists(centroids):
        return np.maximum(
            sq[:, None]
            - 2.0 * (points @ centroids.T)
            + (centroids * centroids).sum(axis=1)[None, :],
            0.0,
        )

    points = np.asarray(points, dtype=np.float64)
    sq = (points * points).sum(axis=1)
    seeds = _kmeans_pp_init(
        points, k, [np.random.default_rng((seed, r)) for r in range(KMEANS_RESTARTS)]
    )
    best = None
    for centroids in seeds:
        assign = None
        for _ in range(KMEANS_ITERS):
            new_assign = dists(centroids).argmin(axis=1)
            if assign is not None and np.array_equal(new_assign, assign):
                break
            assign = new_assign
            for j in range(k):
                members = assign == j
                if members.any():
                    centroids[j] = points[members].mean(axis=0)
        d2 = dists(centroids)
        assign = d2.argmin(axis=1)
        inertia = float(d2[np.arange(points.shape[0]), assign].sum())
        if best is None or inertia < best[2]:
            best = (assign, centroids, inertia)
    return best


def fps_subtraction(rows, s):
    """Farthest point sampling with each distance formed as a difference of
    rows: the reference select_fps is checked against."""
    x = np.asarray(rows, dtype=np.float64)
    chosen = [int(np.argmax((x**2).sum(axis=1)))]
    dist = ((x - x[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < s:
        dist[chosen] = -1.0
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, ((x - x[nxt]) ** 2).sum(axis=1))
    return np.array(chosen, dtype=np.intp)


def flatten_rows(per_class) -> np.ndarray:
    """Concatenate class slices per sample: (C, m, D) -> (m, C * D)."""
    c, m, d = per_class.shape
    return per_class.transpose(1, 0, 2).reshape(m, c * d)


def row_coordinates(per_class) -> np.ndarray:
    """(m, min(m, C * D)) coordinates of the samples' flattened gradient rows
    x with every pairwise distance kept: R^T of the QR factorization
    x^T = QR. The reference the averaged kernel's eigen-coordinates are
    checked against: distance-only selections pick the same rows on both."""
    x = as_matrix(flatten_rows(per_class), "rows")
    return np.linalg.qr(x.T, mode="r").T
