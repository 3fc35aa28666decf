"""Small dense network with hand-written reverse-mode differentiation.

The network exists to produce per-logit parameter gradients, the rows of
the gradient feature matrices everything downstream consumes. One forward
trace feeds two backward passes written out explicitly (no autodiff): the
per-logit one seeds the C x C identity, the loss one seeds the loss
gradient and serves loss_param_gradient and SGD training alike. Both are
checked in the test suite against central finite differences and against
each other through the chain rule. The per-logit pass (_logit_backprop)
runs ROW_BATCH rows at a time, the one row batch of extraction and sketch
alike, and fills one array of factor_record records, one per sample: the
one form a batch of factors takes, made live by a ClassRows or read from a
raw gradient file. param_blocks places each layer in theta, layer_factors
views each in a batch. A GradientFeatures' kind is the type of its rows:
raw parameter-space rows are a ClassRows, sketched rows an array, so raw
rows held densely cannot be built.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimMismatch,
    Divergence,
    EmptyInput,
    InputError,
    ShapeMismatch,
)

ACTIVATIONS = ("tanh", "relu")
LOSSES = ("squared", "cross_entropy")

# rows per backward pass, for extraction and the fused sketch alike, and
# the only row batch: both then hold the same factors, so a staged sketch
# equals the in-process one
ROW_BATCH = 32


@dataclass(frozen=True)
class MlpParams:
    """Flattened parameters of a fully connected network.

    Layout: param_blocks(layer_sizes), per layer the weight matrix in
    row-major order followed by the bias vector. The final layer is affine;
    hidden layers apply the activation element-wise.
    """

    layer_sizes: tuple[int, ...]
    theta: np.ndarray
    activation: str = "tanh"

    @property
    def param_count(self) -> int:
        return int(self.theta.size)

    @property
    def class_count(self) -> int:
        return int(self.layer_sizes[-1])

    @property
    def input_dim(self) -> int:
        return int(self.layer_sizes[0])

    def with_theta(self, theta: np.ndarray) -> "MlpParams":
        theta = np.ascontiguousarray(theta, dtype=np.float64)
        if theta.shape != self.theta.shape:
            raise DimMismatch(
                f"theta must have shape {self.theta.shape}, got {theta.shape}")
        return MlpParams(self.layer_sizes, theta, self.activation)


@dataclass(frozen=True)
class LabeledDataset:
    inputs: np.ndarray  # (n, d_in)
    labels: np.ndarray  # (n,) integer class ids
    class_count: int

    @property
    def size(self) -> int:
        return int(self.inputs.shape[0])


class ClassRows:
    """(C, n, P) per-logit rows held as the backward pass's factors.

    Layer l's per-logit gradient of sample i for class c is the outer
    product dz_l[i, c] x a_l[i] (its weight block) followed by dz_l[i, c]
    (its bias block), so the rows are handed out as each sample's factor
    record, per layer dz_l (C, fan_out) and a_l (fan_in,): sum(C * fan_out
    + fan_in) floats instead of C * P. `shape` is the whole array's, and
    rows[c] fills class c's (n, P) float64 block as a new array. An ndarray
    offers the same `shape` and `[c]`, so a consumer that asks for one
    class at a time takes either; nothing else of the array interface
    exists, so no caller can gather every class at once by accident.

    The factors come one pass at a time: batches() returns an iterator
    that yields one new array of factor records per consecutive ROW_BATCH
    rows and holds no batch but the one it yields. Its two sources yield
    the same bytes in the same layout, and neither holds a whole split's
    factors: the live backward pass (ClassRows.of_backprop, run on each
    batch of its own copy of the inputs when asked) and a raw gradient file
    io.read_gradients has checked. sketch._fused_sketch contracts the
    batches, io.write_gradients writes them and [c] fills one class block
    from them, each dropping a batch before it asks for the next.
    """

    def __init__(self, layer_sizes, n: int, batches):
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.shape = (self.layer_sizes[-1], int(n), param_count(self.layer_sizes))
        self.batches = batches

    @classmethod
    def of_backprop(cls, params: MlpParams, xb: np.ndarray) -> "ClassRows":
        """Rows of the per-logit gradients of the (n, d_in) inputs xb, made
        by _logit_backprop on each batch as it is asked for. xb and theta
        are copied, so later changes to the caller's arrays leave the rows
        as they were."""
        params, xb = replace(params, theta=params.theta.copy()), xb.copy(order="K")

        def batches():
            for start in range(0, xb.shape[0], ROW_BATCH):
                yield _logit_backprop(params, xb[start : start + ROW_BATCH])

        return cls(params.layer_sizes, xb.shape[0], batches)

    def __getitem__(self, c) -> np.ndarray:
        # operator.index refuses slices and tuples; range refuses c outside [-C, C)
        c = range(self.shape[0])[operator.index(c)]
        out, blocks = np.empty(self.shape[1:]), param_blocks(self.layer_sizes)
        batches = self.batches()
        for start in range(0, self.shape[1], ROW_BATCH):
            # no local keeps the batch, so it is dropped before the next is read or made
            _fill_class(out[start : start + ROW_BATCH], next(batches), blocks, c)
        return out


def _fill_class(rows: np.ndarray, batch: np.ndarray, blocks, c: int) -> None:
    """Fill rows, class c's (b, P) rows of a batch of factor records."""
    for (w_at, b_at, fan_out, fan_in), (dz, a) in zip(blocks, layer_factors(batch)):
        # dW[i, o, j] = dz[i, c, o] * a[i, j], into a view of the unit-stride row slice
        np.multiply(dz[:, c, :, None], a[:, None, :],
                    out=rows[:, w_at].reshape(-1, fan_out, fan_in))
        rows[:, b_at] = dz[:, c]


@dataclass
class GradientFeatures:
    """Per-logit gradient rows for a sample set.

    per_class[c] stacks phi^c(x_i) as rows, one n x width matrix per class;
    labels are the samples' class ids. The type of per_class is the rows'
    kind, which gradient files record in their header; the two kinds must
    never be mixed downstream. Raw parameter-space rows are a ClassRows,
    the backward pass's factors, which make one class's rows at a time:
    C * n * P raw floats are never held, written or read at once. Sketched
    rows are a (C, n, width) array.
    """

    per_class: np.ndarray | ClassRows  # (C, n, width)
    labels: np.ndarray  # (n,) int64 class ids
    model_logits: np.ndarray  # (n, C)

    @property
    def raw(self) -> bool:
        return isinstance(self.per_class, ClassRows)

    @property
    def class_count(self) -> int:
        return int(self.per_class.shape[0])

    @property
    def size(self) -> int:
        return int(self.per_class.shape[1])

    @property
    def width(self) -> int:
        return int(self.per_class.shape[2])


def param_blocks(layer_sizes) -> list[tuple[slice, slice, int, int]]:
    """Theta's layout, the one statement of it: per layer in network order,
    (weight slice, bias slice, fan_out, fan_in), the row-major weight
    matrix followed by the bias, tiling [0, P). Every offset into theta,
    or into the sketch's rows, which follow theta, is read from here."""
    sizes = tuple(int(s) for s in layer_sizes)
    blocks, pos = [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w_end = pos + fan_out * fan_in
        blocks.append((slice(pos, w_end), slice(w_end, w_end + fan_out), fan_out, fan_in))
        pos = w_end + fan_out
    return blocks


def factor_record(layer_sizes) -> np.dtype:
    """One sample's backward-pass factors, the one statement of their
    layout: per layer in network order, dz<l> its logit gradients (C,
    fan_out), then a<l> its inputs (fan_in,), little-endian float64, packed.
    A batch of factors is an array of these, as a raw file's payload is."""
    sizes = tuple(int(s) for s in layer_sizes)
    return np.dtype([field
                     for layer, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:]))
                     for field in ((f"dz{layer}", "<f8", (sizes[-1], fan_out)),
                                   (f"a{layer}", "<f8", (fan_in,)))])


def layer_factors(batch: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of a batch of factor records as the (dz, a) rows of each layer,
    in network order: dz (b, C, fan_out) and a (b, fan_in)."""
    names = batch.dtype.names
    return [(batch[dz], batch[a]) for dz, a in zip(names[::2], names[1::2])]


def param_count(layer_sizes) -> int:
    blocks = param_blocks(layer_sizes)
    return blocks[-1][1].stop if blocks else 0


def _validate_layer_sizes(layer_sizes) -> tuple[int, ...]:
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise InputError("layer_sizes needs at least input and output widths")
    if any(s < 1 for s in sizes):
        raise InputError(f"layer widths must be positive, got {sizes}")
    return sizes


def init_params(layer_sizes, seed: int, activation: str = "tanh") -> MlpParams:
    """Seeded scaled-uniform init: W ~ U(-1, 1) / sqrt(fan_in), biases zero."""
    sizes = _validate_layer_sizes(layer_sizes)
    if activation not in ACTIVATIONS:
        raise InputError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")
    rng = np.random.default_rng(seed)
    theta = np.zeros(param_count(sizes))
    for w_at, _, fan_out, fan_in in param_blocks(sizes):  # drawn in network order
        theta[w_at] = (rng.uniform(-1.0, 1.0, size=(fan_out, fan_in)) / np.sqrt(fan_in)).ravel()
    return MlpParams(layer_sizes=sizes, theta=theta, activation=activation)


def _unpack(params: MlpParams):
    """Views of theta as (weight, bias) pairs; no copies."""
    return [(params.theta[w_at].reshape(fan_out, fan_in), params.theta[b_at])
            for w_at, b_at, fan_out, fan_in in param_blocks(params.layer_sizes)]


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(z)
    return np.maximum(z, 0.0)


def _act_grad(a: np.ndarray, kind: str) -> np.ndarray:
    """The activation's derivative at each pre-activation z, from its
    output a = _act(z, kind): the same bits as evaluating it at z."""
    if kind == "tanh":
        return 1.0 - a * a
    return (a > 0.0).astype(np.float64)


def _batch(params: MlpParams, x) -> np.ndarray:
    """x as float64 (n, d_in) inputs; DimMismatch for any other shape."""
    xb = np.asarray(x, dtype=np.float64)
    if xb.ndim != 2 or xb.shape[1] != params.input_dim:
        raise DimMismatch(f"expected (n, {params.input_dim}) inputs, got shape {xb.shape}")
    return xb


def _one_input(params: MlpParams, x) -> np.ndarray:
    """A single length-d_in input as a (1, d_in) batch; any other shape fails."""
    return _batch(params, np.asarray(x, dtype=np.float64)[None])


def forward(params: MlpParams, x) -> np.ndarray:
    """Logits (pre-softmax) for a single input."""
    return forward_batch(params, _one_input(params, x))[0]


def forward_batch(params: MlpParams, x_batch) -> np.ndarray:
    return _forward_trace(params, _batch(params, x_batch))[1][-1]


def _forward_trace(params: MlpParams, xb: np.ndarray):
    """Forward pass keeping every layer's input, and the logits last, for
    backprop; a hidden layer's output also gives its activation's slope."""
    layers = _unpack(params)
    acts = [xb]
    a = xb
    for i, (w, b) in enumerate(layers):
        z = a @ w.T + b
        a = _act(z, params.activation) if i < len(layers) - 1 else z
        acts.append(a)
    return layers, acts


def per_logit_gradient(params: MlpParams, x) -> np.ndarray:
    """Jacobian of the logits with respect to theta, one row per class.

    Backpropagates the C x C identity through the network, so one backward
    pass holds the factors of all C gradient rows; each row is filled from
    them as the input's ClassRows fills a class block.
    """
    rows = ClassRows.of_backprop(params, _one_input(params, x))
    return np.concatenate([rows[c] for c in range(params.class_count)])


def _logit_backprop(params: MlpParams, xb: np.ndarray) -> np.ndarray:
    """Backpropagate the C x C identity through the network, last layer
    first, into a new array of factor records, one per row of xb: layer l's
    dz (n, C, fan_out) takes the logit gradients with respect to its
    pre-activations and its a (n, fan_in) its inputs. Each dz is the next
    layer's times its weights, written into its field and scaled there one
    class at a time (numpy copies a whole strided field it scales at once)."""
    layers, acts = _forward_trace(params, xb)
    out = np.empty(xb.shape[0], dtype=factor_record(params.layer_sizes))
    fields = layer_factors(out)
    fields[-1][0][...] = np.eye(params.class_count)
    for i in range(len(layers) - 1, -1, -1):
        dz, a = fields[i]
        a[...] = acts[i]
        if i > 0:
            below, slope = fields[i - 1][0], _act_grad(acts[i], params.activation)
            np.matmul(dz, layers[i][0], out=below)
            for c in range(params.class_count):
                below[:, c] *= slope
    return out


# ------------------------------------------------------------------ losses

def one_hot(labels, class_count: int) -> np.ndarray:
    ids = np.asarray(labels)
    if ids.ndim != 1:
        raise ShapeMismatch(f"labels must be 1-d class ids, got shape {ids.shape}")
    if ids.min() < 0 or ids.max() >= class_count:
        raise DimMismatch(f"class id out of range for {class_count} classes")
    out = np.zeros((ids.size, class_count))
    out[np.arange(ids.size), ids] = 1.0
    return out


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _target_vector(y, class_count: int) -> np.ndarray:
    yv = np.asarray(y, dtype=np.float64)
    if yv.ndim == 0:
        vec = np.zeros(class_count)
        vec[int(yv)] = 1.0
        return vec
    if yv.shape != (class_count,):
        raise ShapeMismatch(f"target must be a class id or length-{class_count} vector")
    return yv


def loss_logit_gradient(logits: np.ndarray, y, loss: str) -> np.ndarray:
    """Gradient of the loss with respect to the logits."""
    if loss not in LOSSES:
        raise InputError(f"loss must be one of {LOSSES}, got {loss!r}")
    target = _target_vector(y, logits.shape[-1])
    if loss == "squared":
        return 2.0 * (logits - target)
    return _softmax(logits) - target


def loss_param_gradient(params: MlpParams, x, y, loss: str) -> np.ndarray:
    """Gradient of the loss wrt theta via one backward pass seeded with delta."""
    trace = _forward_trace(params, _one_input(params, x))
    delta = loss_logit_gradient(trace[1][-1][0], y, loss)
    return _backprop(params, trace, delta[None, :])


def _backprop(params: MlpParams, trace, dz: np.ndarray) -> np.ndarray:
    """(P,) theta-gradient of sum_i dz_i . logits_i over a _forward_trace batch.

    dz (n, C) is the loss gradient at the logits. Bias sums start from -0.0,
    the exact additive identity, so one row's bias gradient keeps its signed
    zeros.
    """
    layers, acts = trace
    grad = np.empty(params.param_count)
    blocks = param_blocks(params.layer_sizes)
    for i in range(len(layers) - 1, -1, -1):
        w_at, b_at, _, _ = blocks[i]
        grad[b_at] = dz.sum(axis=0, initial=-0.0)
        grad[w_at] = (dz.T @ acts[i]).ravel()
        if i > 0:
            dz = (dz @ layers[i][0]) * _act_grad(acts[i], params.activation)
    return grad


def chain_rule_check(params: MlpParams, x, y, loss: str = "cross_entropy") -> float:
    """Relative gap between the direct loss gradient and sum_c delta_c phi^c.

    Both sides are assembled independently: the left by a single seeded
    backward pass, the right by combining the per-logit gradient rows.
    Returns the absolute gap when the direct gradient is numerically zero.
    """
    direct = loss_param_gradient(params, x, y, loss)
    logits = forward(params, x)
    delta = loss_logit_gradient(logits, y, loss)
    combined = per_logit_gradient(params, x).T @ delta
    gap = np.linalg.norm(direct - combined)
    denom = np.linalg.norm(direct)
    if denom < 1e-14:
        return float(gap)
    return float(gap / denom)


# ---------------------------------------------------------------- datasets

def gen_gaussian_mixture(
    class_count: int, per_class: int, dim: int, spread: float, seed: int
) -> LabeledDataset:
    """Isotropic Gaussian blobs with seeded means, one blob per class.

    Means are standard normal draws, so they are pairwise distinct and the
    blobs separate cleanly whenever spread is small against sqrt(2 * dim).
    Samples are laid out class-major.
    """
    if class_count < 2:
        raise InputError(f"need at least 2 classes, got {class_count}")
    if per_class < 1 or dim < 1:
        raise EmptyInput("per_class and dim must be positive")
    if spread < 0.0:
        raise InputError(f"spread must be >= 0, got {spread}")
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(class_count, dim))
    inputs = np.empty((class_count * per_class, dim))
    labels = np.empty(class_count * per_class, dtype=np.intp)
    for c in range(class_count):
        block = slice(c * per_class, (c + 1) * per_class)
        inputs[block] = means[c] + spread * rng.normal(size=(per_class, dim))
        labels[block] = c
    return LabeledDataset(inputs=inputs, labels=labels, class_count=class_count)


# ---------------------------------------------------------------- training

def train_sgd(
    params: MlpParams,
    data: LabeledDataset,
    lr: float,
    epochs: int,
    batch: int,
    seed: int,
) -> MlpParams:
    """Mini-batch SGD on softmax cross-entropy with seeded shuffling.

    One forward trace per batch, and no other pass over the data.
    epochs = 0 returns an unchanged copy. Raises Divergence when the given
    parameters are not finite, and at the end of the first epoch after
    which they are not.
    """
    if data.class_count != params.class_count:
        raise DimMismatch("dataset class count does not match the network head")
    if lr <= 0.0 or epochs < 0 or batch < 1:
        raise InputError("need lr > 0, epochs >= 0, batch >= 1")
    inputs = _batch(params, data.inputs)
    theta = params.theta.copy()
    model = replace(params, theta=theta)
    rng = np.random.default_rng(seed)
    targets = one_hot(data.labels, data.class_count)
    if not np.isfinite(theta).all():
        raise Divergence("initial parameters are not finite")
    for epoch in range(1, epochs + 1):
        order = rng.permutation(data.size)
        for start in range(0, data.size, batch):
            idx = order[start : start + batch]
            trace = _forward_trace(model, inputs[idx])
            dz = (_softmax(trace[1][-1]) - targets[idx]) / idx.size
            theta -= lr * _backprop(model, trace, dz)
        if not np.isfinite(theta).all():
            raise Divergence(f"parameters became non-finite in epoch {epoch}")
    return model


# ------------------------------------------------------------- extraction

def _sample_set(params: MlpParams, inputs, labels):
    """Checked inputs, int64 class ids and model logits of a sample set."""
    xb = _batch(params, inputs)
    n = xb.shape[0]
    if n == 0:
        raise EmptyInput("need at least one sample")
    ids = np.asarray(labels)
    if ids.shape != (n,) or ids.dtype.kind not in "iu":
        raise ShapeMismatch(f"labels must be ({n},) integer ids, got {ids.dtype} {ids.shape}")
    if ids.min() < 0 or ids.max() >= params.class_count:
        raise DimMismatch(f"class id out of range for {params.class_count} classes")
    return xb, ids.astype(np.int64), forward_batch(params, xb)


def extract_features(params: MlpParams, inputs, labels) -> GradientFeatures:
    """Per-logit gradients, class ids and model logits for a sample set.

    The raw (C, n, P) gradient rows are a ClassRows of the live backward
    pass over a copy of the inputs: each pass over them runs it per
    ROW_BATCH rows, so no split's factors are held whole, and [c] fills
    class c's (n, P) block from them. labels are the (n,) integer class
    ids of the inputs.
    """
    xb, ids, logits = _sample_set(params, inputs, labels)
    return GradientFeatures(ClassRows.of_backprop(params, xb), ids, logits)
