"""Minimal dense-tensor core with reverse-mode differentiation.

Everything is float64. A :class:`Tensor` wraps a numpy array; a :class:`Tape`
records every differentiable operation in execution order and replays the
record backward to populate gradients. Coverage is deliberately small: the
set of operations the rest of this package actually differentiates through
(depthwise convolution with replicate padding, adaptive average pooling,
softmax, sigmoid, pointwise arithmetic, masked reductions, the stable softplus
and a handful of shape utilities). Anything else stays plain numpy.

Conventions that the rest of the package relies on:

* convolution is cross-correlation (no kernel flip),
* spatial borders are always handled by replicate (clamp-to-edge) padding,
* adaptive pooling averages whole ``H/out`` blocks; an output size that does
  not divide its side is refused,
* softmax always subtracts the running maximum before exponentiation.

Ops trust the shapes that package code builds and check only what a user
input can reach; a malformed internal argument fails inside NumPy.

Tensor data is finite. Finiteness is checked where data enters: ``Tensor(data)``,
``Tape.leaf`` and the wrapping of raw operands. An op's output is not checked
again: under the floating-point policy (:func:`float_policy`: overflow,
invalid and divide-by-zero raise ``FloatingPointError``), an op on finite
inputs returns finite data or raises, ``channel_project``'s ``np.matmul``
included. The package's entry points (``run_gradient_checks``, ``run_experiment``,
``structure_mask`` and the CLI's ``main``) run under the policy.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

Array = np.ndarray
NOT_FINITE = "tensor data must be finite"


def float_policy() -> np.errstate:
    """The floating-point policy, as a context: NumPy overflow, invalid and
    divide-by-zero raise ``FloatingPointError``."""
    return np.errstate(over="raise", invalid="raise", divide="raise")


class Tensor:
    """Dense float64 array; it requires grad exactly when a :class:`Tape` tracks it."""

    __slots__ = ("data", "grad", "tape")

    def __init__(self, data, tape: "Tape | None" = None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise ValueError(NOT_FINITE)
        self.data = arr
        self.grad: Array | None = None
        self.tape = tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a one-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))


Pullback = Callable[[Array], Sequence[Array | None]]


class Tape:
    """Ordered record of differentiable operations.

    Each record is an ``(output, inputs, pullback)`` triple. ``backward`` walks
    the record in exact reverse execution order and accumulates gradients into
    every taped input of a record that the loss reaches, writing each one's
    ``.grad`` as it goes; a constant (untaped) input receives none, and nor
    does the loss itself; the pullbacks of ``add``, ``mul``, ``conv2d`` and
    ``channel_project`` return ``None`` for a constant input rather than
    compute a cotangent that would be dropped. Calling it again overwrites the
    gradients it reaches.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], Pullback]] = []

    def __len__(self) -> int:
        """Number of recorded ops, which geobench's tracer reads."""
        return len(self._nodes)

    def leaf(self, data) -> Tensor:
        """Create a trainable leaf tensor attached to this tape."""
        return Tensor(data, tape=self)

    def backward(self, loss: Tensor) -> None:
        grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
        for output, inputs, pullback in reversed(self._nodes):
            g_out = grads.get(id(output))
            if g_out is None:
                continue
            for tensor, g in zip(inputs, pullback(g_out)):
                if tensor.tape is None:
                    continue
                held = grads.get(id(tensor))
                tensor.grad = grads[id(tensor)] = g if held is None else held + g


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _emit(inputs: tuple[Tensor, ...], out_data: Array,
          pullback: Pullback) -> Tensor:
    """Build the output tensor and record the op when an input has a tape."""
    tape = next((t.tape for t in inputs if t.tape is not None), None)
    # An op output skips ``Tensor.__init__``'s finiteness pass (module docstring).
    out = Tensor.__new__(Tensor)
    out.data, out.grad, out.tape = np.asarray(out_data, dtype=np.float64), None, tape
    if tape is not None:
        tape._nodes.append((out, inputs, pullback))
    return out


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape`` (the adjoint of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# pointwise arithmetic


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data

    def pullback(g):
        return (None if a.tape is None else _unbroadcast(g, a.data.shape),
                None if b.tape is None else _unbroadcast(g, b.data.shape))

    return _emit((a, b), out, pullback)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data

    def pullback(g):
        return (None if a.tape is None else _unbroadcast(g * b.data, a.data.shape),
                None if b.tape is None else _unbroadcast(g * a.data, b.data.shape))

    return _emit((a, b), out, pullback)


def relu(t: Tensor) -> Tensor:
    """max(0, x); the subgradient at exactly zero is taken as zero."""
    t = _as_tensor(t)
    mask = t.data > 0.0

    def pullback(g):
        return (g * mask,)

    return _emit((t,), np.where(mask, t.data, 0.0), pullback)


def absolute(t: Tensor) -> Tensor:
    t = _as_tensor(t)

    def pullback(g):
        return (g * np.sign(t.data),)

    return _emit((t,), np.abs(t.data), pullback)


def _logistic(x: Array) -> Array:
    """Stable in both tails: never exponentiates a positive number."""
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, z) / (1.0 + z)


def sigmoid(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    s = _logistic(t.data)

    def pullback(g):
        return (g * s * (1.0 - s),)

    return _emit((t,), s, pullback)


def log1p_exp(t: Tensor) -> Tensor:
    """log(1 + exp(x)), computed as logaddexp(0, x) so large x cannot overflow."""
    t = _as_tensor(t)

    def pullback(g):
        return (g * _logistic(t.data),)

    return _emit((t,), np.logaddexp(0.0, t.data), pullback)


# ---------------------------------------------------------------------------
# reductions


def sum_all(t: Tensor, axis: int | None = None) -> Tensor:
    """Sum of every entry; given ``axis``, the sums along it, which is dropped.
    On a C-contiguous input each last-axis sum adds in a 1-d sum's order."""
    t = _as_tensor(t)
    shape = t.data.shape

    def pullback(g):
        return (np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape).copy(),)

    return _emit((t,), np.asarray(t.data.sum(axis=axis)), pullback)


def masked_mean(t: Tensor, mask) -> Tensor:
    """One mean per item ``t[i]``: the mean of the entries that a boolean mask,
    broadcast to one item's shape, selects."""
    t = _as_tensor(t)
    b = t.data.shape[0]
    sel = np.broadcast_to(np.asarray(mask, dtype=bool), t.data.shape[1:])
    count = int(sel.sum())
    # A boolean index on the trailing axis returns F-ordered rows, whose row
    # sums add in another order than the 1-d sum of one item's selection.
    picked = np.ascontiguousarray(t.data.reshape(b, -1)[:, sel.ravel()])
    out = picked.sum(axis=1) / count

    def pullback(g):
        return (np.where(sel, g.reshape((b,) + (1,) * sel.ndim) / count, 0.0),)

    return _emit((t,), out, pullback)


def mean_over_axis(t: Tensor, axis: int) -> Tensor:
    """Mean along one axis, which is kept with length one."""
    t = _as_tensor(t)
    n = t.data.shape[axis]
    shape = t.data.shape
    out = t.data.mean(axis=axis, keepdims=True)

    def pullback(g):
        return (np.broadcast_to(g / n, shape).copy(),)

    return _emit((t,), out, pullback)


# ---------------------------------------------------------------------------
# shape utilities


def reshape(t: Tensor, shape: tuple[int, ...]) -> Tensor:
    t = _as_tensor(t)
    old = t.data.shape

    def pullback(g):
        return (g.reshape(old),)

    return _emit((t,), t.data.reshape(shape), pullback)


def select_index(t: Tensor, axis: int, index: int) -> Tensor:
    """Take one slice along ``axis`` (the axis is dropped)."""
    t = _as_tensor(t)
    shape = t.data.shape
    out = np.take(t.data, index, axis=axis)

    def pullback(g):
        full = np.zeros(shape)
        key = (slice(None),) * axis + (index,)
        full[key] = g
        return (full,)

    return _emit((t,), out, pullback)


def masked_fill(t: Tensor, where, value: float) -> Tensor:
    """Overwrite the selected entries with a constant; grads pass elsewhere."""
    t = _as_tensor(t)
    sel = np.broadcast_to(np.asarray(where, dtype=bool), t.data.shape)
    out = np.where(sel, float(value), t.data)

    def pullback(g):
        return (np.where(sel, 0.0, g),)

    return _emit((t,), out, pullback)


# ---------------------------------------------------------------------------
# softmax


def softmax_over_axis(t: Tensor, axis: int) -> Tensor:
    """Numerically stable softmax along one axis (max is always subtracted)."""
    t = _as_tensor(t)
    shifted = t.data - t.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def pullback(g):
        inner = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - inner),)

    return _emit((t,), s, pullback)


# ---------------------------------------------------------------------------
# convolution


class Kernel2D:
    """Depthwise correlation stencil with integer dilation ``>= 1``.

    ``weights`` is a ``(C, k, k)`` stack, ``k`` odd: channel ``c`` of the
    input is correlated with its own ``k x k`` stencil ``weights[c]``, so the
    output keeps the input's channel count. One stencil for a one-channel map
    is a ``(1, k, k)`` stack. A ``(B, C, k, k)`` per-item stack gives batch
    item ``b`` its own stencils ``weights[b]``: each item's output, and its
    stencils' gradient, are the floats a call on that item alone gives.
    """

    def __init__(self, weights, dilation: int = 1):
        self.weights = _as_tensor(weights)
        self.dilation = int(dilation)

    @property
    def size(self) -> int:
        return self.weights.data.shape[-1]


def _fold_replicate(gp: Array, pad: int, h: int, w: int) -> Array:
    """Adjoint of replicate padding: collapse border rows/cols onto the edge."""
    rows = gp[:, :, pad:pad + h, :].copy()
    rows[:, :, 0, :] += gp[:, :, :pad, :].sum(axis=2)
    rows[:, :, -1, :] += gp[:, :, pad + h:, :].sum(axis=2)
    core = rows[:, :, :, pad:pad + w].copy()
    core[:, :, :, 0] += rows[:, :, :, :pad].sum(axis=3)
    core[:, :, :, -1] += rows[:, :, :, pad + w:].sum(axis=3)
    return core


def conv2d(t: Tensor, kernel: Kernel2D) -> Tensor:
    """Dilated depthwise cross-correlation over B x C x H x W, clamp-to-edge borders."""
    t = _as_tensor(t)
    b, c, h, w = t.data.shape
    kw = kernel.weights
    k, d = kernel.size, kernel.dilation
    pad = (k // 2) * d
    # Replicate padding as a clamped-index gather. One ``take`` per axis
    # returns a C-contiguous copy, so the pullback's ``zeros_like(xp)`` and
    # einsum sums run in the same order as on a padded copy; a one-step fancy
    # index would return another layout and change the gradients' last bits.
    rows = np.minimum(np.maximum(np.arange(-pad, h + pad), 0), h - 1)
    cols = np.minimum(np.maximum(np.arange(-pad, w + pad), 0), w - 1)
    xp = t.data.take(rows, axis=2).take(cols, axis=3)
    # coeff[:, :, u, v] is tap (u, v)'s stencil weights as a (1, C, 1, 1) view,
    # or (B, C, 1, 1) for a per-item stack.
    coeff = kw.data.reshape(-1, c, k, k, 1, 1)
    # A shared stencil's gradient sums over the batch; a per-item one's does not.
    spec = "bchw,bchw->c" if kw.data.ndim == 3 else "bchw,bchw->bc"

    def tap(u: int, v: int) -> Array:
        return xp[:, :, u * d:u * d + h, v * d:v * d + w]

    out = np.zeros((b, c, h, w))
    for u in range(k):
        for v in range(k):
            out += coeff[:, :, u, v] * tap(u, v)

    def pullback(g):
        gx = gw = None
        if t.tape is not None:
            gxp = np.zeros_like(xp)
            for u in range(k):
                for v in range(k):
                    gxp[:, :, u * d:u * d + h, v * d:v * d + w] += coeff[:, :, u, v] * g
            gx = _fold_replicate(gxp, pad, h, w)
        if kw.tape is not None:
            gw = np.zeros_like(kw.data)
            for u in range(k):
                for v in range(k):
                    gw[..., u, v] = np.einsum(spec, g, tap(u, v))
        return gx, gw

    return _emit((t, kw), out, pullback)


def channel_project(t: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """1x1 projection across channels: out[b,o] = sum_c w[o,c] * x[b,c] + bias[o].

    ``weights`` is ``(C_out, C_in)`` or a per-item ``(B, C_out, C_in)`` stack,
    and ``bias`` is ``(C_out,)`` or a per-item ``(B, C_out)`` one, each on its
    own. Each item gets its own gemm, so its output, and a per-item
    parameter's gradient, are the floats a call on that item alone gives;
    a shared parameter's gradient sums over the batch.
    """
    t, weights, bias = _as_tensor(t), _as_tensor(weights), _as_tensor(bias)
    b, _, h, w = t.data.shape
    c_out, c_in = weights.data.shape[-2:]
    x = t.data.reshape(b, c_in, h * w)
    out = (weights.data @ x).reshape(b, c_out, h, w) + bias.data.reshape(-1, c_out, 1, 1)

    def pullback(g):
        g = g.reshape(b, c_out, h * w)
        gx = gw = gb = None
        if t.tape is not None:
            gx = (np.swapaxes(weights.data, -1, -2) @ g).reshape(b, c_in, h, w)
        if weights.tape is not None:
            gw = g @ x.transpose(0, 2, 1)
            if weights.data.ndim == 2:
                gw = gw.sum(axis=0)
        if bias.tape is not None:
            gb = g.sum(axis=2) if bias.data.ndim == 2 else g.sum(axis=(0, 2))
        return gx, gw, gb

    return _emit((t, weights, bias), out, pullback)


# ---------------------------------------------------------------------------
# pooling


def adaptive_avg_pool(t: Tensor, out_h: int, out_w: int) -> Tensor:
    """Average-pool to an output size that splits the input into whole blocks.

    Output cell ``(i, j)`` is the mean of the ``kh x kw`` block at rows
    ``i*kh .. (i+1)*kh`` and columns ``j*kw .. (j+1)*kw``, where
    ``kh = H // out_h`` and ``kw = W // out_w``; every input cell lands in
    exactly one block, so the global mean is preserved.
    """
    t = _as_tensor(t)
    _, _, h, w = t.data.shape
    if out_h < 1 or out_w < 1 or h % out_h or w % out_w:
        raise ValueError(f"adaptive_avg_pool needs an output size that splits the input "
                         f"into whole blocks: {(h, w)} -> {(out_h, out_w)}")
    kh, kw = h // out_h, w // out_w
    sums = np.add.reduceat(t.data, np.arange(0, h, kh), axis=2)
    out = np.add.reduceat(sums, np.arange(0, w, kw), axis=3) / (kh * kw)

    def pullback(g):
        return (g[:, :, np.arange(h)[:, None] // kh, np.arange(w)[None, :] // kw] / (kh * kw),)

    return _emit((t,), out, pullback)


# ---------------------------------------------------------------------------
# normalization


def row_dot(a: Array, b: Array) -> Array:
    """Dot products of matching rows (last axis) of ``a`` and ``b``, kept with
    length one. Each is an ``np.matmul`` of a (1, D) row and a (D, 1) column,
    the 1-d ``a @ b`` bit for bit; ``einsum`` and ``(a * b).sum(-1)`` add in
    other orders."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0]


def l2_normalize(t: Tensor) -> Tensor:
    """Scale a vector, or each row of a matrix, to unit Euclidean norm."""
    t = _as_tensor(t)
    norm = np.sqrt(row_dot(t.data, t.data))
    if not norm.all():
        raise ValueError("cannot normalize a zero vector")
    y = t.data / norm

    def pullback(g):
        return ((g - y * row_dot(y, g)) / norm,)

    return _emit((t,), y, pullback)
