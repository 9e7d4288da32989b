"""Differentiable operations for :mod:`repro.nn`.

Every public function takes :class:`~repro.nn.tensor.Tensor` (or plain
array-likes, which are promoted) and returns a new tensor wired into the
autograd graph.  Gradients are defined analytically per op; the test suite
verifies each of them against central finite differences via
:mod:`repro.nn.gradcheck`.

The set of operators is exactly what the CamE paper and its baselines
need: dense algebra (matmul, elementwise), activations (sigmoid, tanh,
relu), softmax with configurable axis and temperature, 2-D convolution
(im2col), layer/batch normalisation, dropout, embedding lookup, shape
surgery (reshape / transpose / concat / stack / indexing), and the
binary-cross-entropy-with-logits loss of Eqn. 16.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tensor import Tensor, unbroadcast

__all__ = [
    "add", "sub", "mul", "div", "neg", "pow", "matmul", "exp", "log",
    "sqrt", "abs", "sigmoid", "tanh", "relu", "leaky_relu", "softmax",
    "log_softmax", "sum", "mean", "max", "min", "reshape", "transpose",
    "index", "concat", "stack", "embedding", "dropout", "layer_norm",
    "batch_norm", "conv2d", "max_pool2d", "bce_with_logits",
    "cross_entropy", "clip", "maximum", "minimum", "where", "norm", "logsigmoid",
    "scatter_mean", "scatter_sum", "segment_sum", "segment_mean",
    "circular_correlation", "l2_normalize",
]


def _t(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    """Elementwise ``a + b`` with numpy broadcasting."""
    a, b = _t(a), _t(b)
    out_data = a.data + b.data

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad)
        b._accumulate(grad)

    return Tensor.make(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    """Elementwise ``a - b``."""
    a, b = _t(a), _t(b)
    out_data = a.data - b.data

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad)
        b._accumulate(-grad)

    return Tensor.make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    """Elementwise (Hadamard) product."""
    a, b = _t(a), _t(b)
    out_data = a.data * b.data

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * b.data)
        b._accumulate(grad * a.data)

    return Tensor.make(out_data, (a, b), backward)


def div(a, b) -> Tensor:
    """Elementwise ``a / b``."""
    a, b = _t(a), _t(b)
    out_data = a.data / b.data

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad / b.data)
        b._accumulate(-grad * a.data / (b.data * b.data))

    return Tensor.make(out_data, (a, b), backward)


def neg(a) -> Tensor:
    a = _t(a)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(-grad)

    return Tensor.make(-a.data, (a,), backward)


def pow(a, exponent: float) -> Tensor:
    """Elementwise power with a constant exponent."""
    a = _t(a)
    out_data = a.data ** exponent

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * exponent * a.data ** (exponent - 1))

    return Tensor.make(out_data, (a,), backward)


def exp(a) -> Tensor:
    a = _t(a)
    out_data = np.exp(a.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * out_data)

    return Tensor.make(out_data, (a,), backward)


def log(a, eps: float = 0.0) -> Tensor:
    """Natural logarithm; ``eps`` guards against log(0)."""
    a = _t(a)
    safe = a.data + eps if eps else a.data
    out_data = np.log(safe)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad / safe)

    return Tensor.make(out_data, (a,), backward)


def sqrt(a) -> Tensor:
    a = _t(a)
    out_data = np.sqrt(a.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * 0.5 / out_data)

    return Tensor.make(out_data, (a,), backward)


def abs(a) -> Tensor:
    a = _t(a)
    out_data = np.abs(a.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * np.sign(a.data))

    return Tensor.make(out_data, (a,), backward)


def clip(a, low: float, high: float) -> Tensor:
    """Clamp values to ``[low, high]``; gradient is zero outside."""
    a = _t(a)
    out_data = np.clip(a.data, low, high)
    mask = (a.data >= low) & (a.data <= high)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * mask)

    return Tensor.make(out_data, (a,), backward)


def maximum(a, b) -> Tensor:
    """Elementwise maximum; ties route gradient to the first operand."""
    a, b = _t(a), _t(b)
    take_a = a.data >= b.data
    out_data = np.where(take_a, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * take_a)
        b._accumulate(grad * ~take_a)

    return Tensor.make(out_data, (a, b), backward)


def minimum(a, b) -> Tensor:
    """Elementwise minimum; ties route gradient to the first operand."""
    a, b = _t(a), _t(b)
    take_a = a.data <= b.data
    out_data = np.where(take_a, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * take_a)
        b._accumulate(grad * ~take_a)

    return Tensor.make(out_data, (a, b), backward)


def where(condition: np.ndarray, a, b) -> Tensor:
    """Select ``a`` where ``condition`` else ``b`` (condition is constant)."""
    a, b = _t(a), _t(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * cond)
        b._accumulate(grad * ~cond)

    return Tensor.make(out_data, (a, b), backward)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product supporting 1-D vectors and batched operands."""
    a, b = _t(a), _t(b)
    out_data = a.data @ b.data

    def backward(grad: np.ndarray) -> None:
        a_data, b_data = a.data, b.data
        if a_data.ndim == 1 and b_data.ndim == 1:
            # inner product -> scalar grad
            a._accumulate(grad * b_data)
            b._accumulate(grad * a_data)
            return
        if a_data.ndim == 1:
            # (k,) @ (..., k, n) -> (..., n)
            if b_data.ndim == 2:
                a._accumulate(b_data @ grad)
                b._accumulate(np.outer(a_data, grad))
            else:  # batched
                a._accumulate(np.einsum("...n,...kn->k", grad, b_data))
                b._accumulate(np.einsum("k,...n->...kn", a_data, grad))
            return
        if b_data.ndim == 1:
            # (..., m, k) @ (k,) -> (..., m)
            a._accumulate(np.einsum("...m,k->...mk", grad, b_data))
            b._accumulate(np.einsum("...m,...mk->k", grad, a_data))
            return
        # General batched matmul.
        ga = grad @ np.swapaxes(b_data, -1, -2)
        gb = np.swapaxes(a_data, -1, -2) @ grad
        a._accumulate(unbroadcast(ga, a_data.shape))
        b._accumulate(unbroadcast(gb, b_data.shape))

    return Tensor.make(out_data, (a, b), backward)


def norm(a, axis=None, keepdims: bool = False, eps: float = 1e-12) -> Tensor:
    """L2 norm along ``axis`` (differentiable, eps-stabilised)."""
    return sqrt(sum(mul(a, a), axis=axis, keepdims=keepdims) + eps)


def l2_normalize(a, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Scale vectors along ``axis`` to unit L2 norm."""
    return div(a, norm(a, axis=axis, keepdims=True, eps=eps))


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def sigmoid(a) -> Tensor:
    a = _t(a)
    # Numerically stable logistic.
    out_data = np.where(a.data >= 0, 1.0 / (1.0 + np.exp(-a.data)),
                        np.exp(a.data) / (1.0 + np.exp(a.data)))

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * out_data * (1.0 - out_data))

    return Tensor.make(out_data, (a,), backward)


def tanh(a) -> Tensor:
    a = _t(a)
    out_data = np.tanh(a.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * (1.0 - out_data * out_data))

    return Tensor.make(out_data, (a,), backward)


def relu(a) -> Tensor:
    a = _t(a)
    mask = a.data > 0
    out_data = a.data * mask

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * mask)

    return Tensor.make(out_data, (a,), backward)


def leaky_relu(a, slope: float = 0.01) -> Tensor:
    a = _t(a)
    mask = a.data > 0
    out_data = np.where(mask, a.data, slope * a.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * np.where(mask, 1.0, slope))

    return Tensor.make(out_data, (a,), backward)


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` with fused backward."""
    a = _t(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        # dL/dx = s * (g - sum(g * s))
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        a._accumulate(out_data * (grad - dot))

    return Tensor.make(out_data, (a,), backward)


def log_softmax(a, axis: int = -1) -> Tensor:
    """Log-softmax with fused, stable backward."""
    a = _t(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    soft = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor.make(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _t(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray) -> None:
        g = np.asarray(grad)
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(ax % a.data.ndim for ax in axes):
                g = np.expand_dims(g, ax)
        a._accumulate(np.broadcast_to(g, a.data.shape))

    return Tensor.make(out_data, (a,), backward)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _t(a)
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return mul(sum(a, axis=axis, keepdims=keepdims), 1.0 / float(count))


def max(a, axis=None, keepdims: bool = False) -> Tensor:
    """Max reduction; gradient flows to (all) argmax positions."""
    a = _t(a)
    out_data = a.data.max(axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray) -> None:
        expanded = out_data if keepdims or axis is None else np.expand_dims(out_data, axis)
        g = grad if keepdims or axis is None else np.expand_dims(np.asarray(grad), axis)
        mask = a.data == expanded
        counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
        a._accumulate(mask * g / counts)

    return Tensor.make(out_data, (a,), backward)


def min(a, axis=None, keepdims: bool = False) -> Tensor:
    return neg(max(neg(a), axis=axis, keepdims=keepdims))


# ---------------------------------------------------------------------------
# Shape surgery
# ---------------------------------------------------------------------------

def reshape(a, shape: Sequence[int]) -> Tensor:
    a = _t(a)
    out_data = a.data.reshape(shape)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad.reshape(a.data.shape))

    return Tensor.make(out_data, (a,), backward)


def transpose(a, axes: Sequence[int] | None = None) -> Tensor:
    a = _t(a)
    out_data = a.data.transpose(axes)
    inverse = None if axes is None else np.argsort(axes)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad.transpose(inverse))

    return Tensor.make(out_data, (a,), backward)


def index(a, idx) -> Tensor:
    """Differentiable ``a[idx]`` (slices, ints, integer arrays)."""
    a = _t(a)
    out_data = a.data[idx]

    def backward(grad: np.ndarray) -> None:
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, grad)
        a._accumulate(buf)

    return Tensor.make(out_data, (a,), backward)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis."""
    ts = [_t(t) for t in tensors]
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(ts, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            t._accumulate(grad[tuple(slicer)])

    return Tensor.make(out_data, tuple(ts), backward)


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    ts = [_t(t) for t in tensors]
    out_data = np.stack([t.data for t in ts], axis=axis)

    def backward(grad: np.ndarray) -> None:
        parts = np.split(grad, len(ts), axis=axis)
        for t, part in zip(ts, parts):
            t._accumulate(np.squeeze(part, axis=axis))

    return Tensor.make(out_data, tuple(ts), backward)


# ---------------------------------------------------------------------------
# Neural-network primitives
# ---------------------------------------------------------------------------

def embedding(weight, ids) -> Tensor:
    """Row lookup ``weight[ids]`` with scatter-add backward."""
    weight = _t(weight)
    ids = np.asarray(ids, dtype=np.int64)
    out_data = weight.data[ids]

    def backward(grad: np.ndarray) -> None:
        buf = np.zeros_like(weight.data)
        np.add.at(buf, ids, grad)
        weight._accumulate(buf)

    return Tensor.make(out_data, (weight,), backward)


def dropout(a, p: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: identity when ``not training`` or ``p == 0``."""
    a = _t(a)
    if not training or p <= 0.0:
        return a
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    gen = rng if rng is not None else np.random.default_rng()
    mask = (gen.random(a.data.shape) >= p) / (1.0 - p)
    return mul(a, Tensor(mask))


def layer_norm(a, gamma, beta, axis: int = -1, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over ``axis`` with affine parameters."""
    a, gamma, beta = _t(a), _t(gamma), _t(beta)
    mu = a.data.mean(axis=axis, keepdims=True)
    var = a.data.var(axis=axis, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (a.data - mu) * inv_std
    out_data = x_hat * gamma.data + beta.data

    def backward(grad: np.ndarray) -> None:
        gamma._accumulate(unbroadcast(grad * x_hat, gamma.data.shape))
        beta._accumulate(unbroadcast(grad, beta.data.shape))
        g = grad * gamma.data
        term1 = g
        term2 = g.mean(axis=axis, keepdims=True)
        term3 = x_hat * (g * x_hat).mean(axis=axis, keepdims=True)
        a._accumulate(inv_std * (term1 - term2 - term3))

    return Tensor.make(out_data, (a, gamma, beta), backward)


def batch_norm(
    a,
    gamma,
    beta,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalisation over axis 0 (features on the last axes).

    ``running_mean``/``running_var`` are plain arrays updated in place
    during training, mirroring PyTorch's buffer semantics.
    """
    a, gamma, beta = _t(a), _t(gamma), _t(beta)
    reduce_axes = tuple(i for i in range(a.data.ndim) if i != a.data.ndim - 1) if a.data.ndim > 1 else (0,)
    if training:
        mu = a.data.mean(axis=reduce_axes)
        var = a.data.var(axis=reduce_axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mu, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (a.data - mu) * inv_std
    out_data = x_hat * gamma.data + beta.data

    def backward(grad: np.ndarray) -> None:
        gamma._accumulate(unbroadcast(grad * x_hat, gamma.data.shape))
        beta._accumulate(unbroadcast(grad, beta.data.shape))
        g = grad * gamma.data
        if training:
            term2 = g.mean(axis=reduce_axes, keepdims=True)
            term3 = x_hat * (g * x_hat).mean(axis=reduce_axes, keepdims=True)
            a._accumulate(inv_std * (g - term2 - term3))
        else:
            a._accumulate(inv_std * g)

    return Tensor.make(out_data, (a, gamma, beta), backward)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """Unfold ``(N, C, H, W)`` into ``(N, C*kh*kw, out_h*out_w)`` columns."""
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    shape = (n, c, kh, kw, out_h, out_w)
    strides = (
        x.strides[0], x.strides[1], x.strides[2], x.strides[3],
        x.strides[2] * stride, x.strides[3] * stride,
    )
    cols = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    flat_shape = (n, c * kh * kw, out_h * out_w)
    out = np.empty(flat_shape, dtype=x.dtype)
    np.copyto(out.reshape(shape), cols)
    return out, out_h, out_w


def _col2im(cols: np.ndarray, x_shape, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Inverse of :func:`_im2col` (scatter-add of overlapping patches)."""
    n, c, h, w = x_shape
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    x = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            x[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j]
    if pad:
        return x[:, :, pad:-pad, pad:-pad]
    return x


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation: input ``(N,C,H,W)``, weight ``(F,C,kh,kw)``."""
    x, weight = _t(x), _t(weight)
    n, c, h, w = x.data.shape
    f, c2, kh, kw = weight.data.shape
    if c != c2:
        raise ValueError(f"conv2d channel mismatch: input has {c}, weight expects {c2}")
    cols, out_h, out_w = _im2col(x.data, kh, kw, stride, padding)
    w_mat = weight.data.reshape(f, -1)
    out = np.einsum("fk,nkl->nfl", w_mat, cols).reshape(n, f, out_h, out_w)
    parents = [x, weight]
    if bias is not None:
        bias = _t(bias)
        out = out + bias.data.reshape(1, f, 1, 1)
        parents.append(bias)

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.reshape(n, f, -1)
        weight._accumulate(
            np.einsum("nfl,nkl->fk", grad_mat, cols).reshape(weight.data.shape)
        )
        grad_cols = np.einsum("fk,nfl->nkl", w_mat, grad_mat)
        x._accumulate(_col2im(grad_cols, x.data.shape, kh, kw, stride, padding))
        if bias is not None:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))

    return Tensor.make(out, tuple(parents), backward)


def max_pool2d(x, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) square windows."""
    x = _t(x)
    stride = stride or kernel
    cols, out_h, out_w = _im2col(x.data, kernel, kernel, stride, 0)
    n, c = x.data.shape[:2]
    cols = cols.reshape(n, c, kernel * kernel, out_h * out_w)
    arg = cols.argmax(axis=2)
    out = np.take_along_axis(cols, arg[:, :, None, :], axis=2).squeeze(2)
    out = out.reshape(n, c, out_h, out_w)

    def backward(grad: np.ndarray) -> None:
        g = np.zeros((n, c, kernel * kernel, out_h * out_w))
        np.put_along_axis(g, arg[:, :, None, :], grad.reshape(n, c, 1, -1), axis=2)
        g = g.reshape(n, c * kernel * kernel, out_h * out_w)
        x._accumulate(_col2im(g, x.data.shape, kernel, kernel, stride, 0))

    return Tensor.make(out, (x,), backward)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def bce_with_logits(logits, targets, label_smoothing: float = 0.0) -> Tensor:
    """Bernoulli negative log-likelihood of Eqn. 16, computed stably.

    ``loss = mean( max(z,0) - z*q + log(1+exp(-|z|)) )`` where ``z`` are the
    logits and ``q`` the (optionally smoothed) binary targets.
    """
    logits = _t(logits)
    q = np.asarray(targets, dtype=np.float64)
    if label_smoothing:
        q = q * (1.0 - label_smoothing) + label_smoothing / q.shape[-1]
    z = logits.data
    loss = np.maximum(z, 0) - z * q + np.log1p(np.exp(-np.abs(z)))
    out_data = np.asarray(loss.mean())
    n = z.size

    def backward(grad: np.ndarray) -> None:
        p = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
        logits._accumulate(grad * (p - q) / n)

    return Tensor.make(out_data, (logits,), backward)


def logsigmoid(a) -> Tensor:
    """Numerically stable ``log(sigmoid(a))``: ``min(a,0) - log1p(exp(-|a|))``."""
    a = _t(a)
    out_data = np.minimum(a.data, 0.0) - np.log1p(np.exp(-np.abs(a.data)))

    def backward(grad: np.ndarray) -> None:
        # d/da log sigmoid(a) = 1 - sigmoid(a) = sigmoid(-a)
        s = np.where(a.data >= 0, np.exp(-a.data) / (1.0 + np.exp(-a.data)),
                     1.0 / (1.0 + np.exp(a.data)))
        a._accumulate(grad * s)

    return Tensor.make(out_data, (a,), backward)


def cross_entropy(logits, target_ids) -> Tensor:
    """Mean categorical cross-entropy; ``logits`` is ``(N, C)``."""
    logits = _t(logits)
    ids = np.asarray(target_ids, dtype=np.int64)
    lsm = log_softmax(logits, axis=-1)
    picked = index(lsm, (np.arange(len(ids)), ids))
    return neg(mean(picked))


# ---------------------------------------------------------------------------
# Scatter reductions (for GNN message passing)
# ---------------------------------------------------------------------------

def scatter_sum(src, idx, num_segments: int) -> Tensor:
    """Sum rows of ``src`` into ``num_segments`` buckets given by ``idx``."""
    src = _t(src)
    ids = np.asarray(idx, dtype=np.int64)
    out_data = np.zeros((num_segments,) + src.data.shape[1:], dtype=src.data.dtype)
    np.add.at(out_data, ids, src.data)

    def backward(grad: np.ndarray) -> None:
        src._accumulate(grad[ids])

    return Tensor.make(out_data, (src,), backward)


def scatter_mean(src, idx, num_segments: int) -> Tensor:
    """Mean-reduce rows of ``src`` per segment (empty segments get 0)."""
    ids = np.asarray(idx, dtype=np.int64)
    counts = np.bincount(ids, minlength=num_segments).astype(np.float64)
    counts = np.maximum(counts, 1.0).reshape((num_segments,) + (1,) * (np.ndim(_t(src).data) - 1))
    return div(scatter_sum(src, ids, num_segments), Tensor(counts))


def segment_sum(src, indptr) -> Tensor:
    """Sum contiguous row segments: segment ``i`` is ``src[indptr[i]:indptr[i+1]]``.

    The CSR-ordered sibling of :func:`scatter_sum` — when rows are
    already laid out segment-contiguously (a :class:`repro.graph`
    adjacency), ``np.add.reduceat`` replaces the scatter's
    per-row indirection.  Empty segments get zeros.
    """
    src = _t(src)
    indptr = np.asarray(indptr, dtype=np.int64)
    if indptr[-1] != src.data.shape[0]:
        raise ValueError(f"indptr covers {int(indptr[-1])} rows, "
                         f"src has {src.data.shape[0]}")
    starts = indptr[:-1]
    counts = np.diff(indptr)
    num_segments = len(starts)
    if src.data.shape[0] == 0 or num_segments == 0:
        out_data = np.zeros((num_segments,) + src.data.shape[1:], dtype=src.data.dtype)

        def backward_empty(grad: np.ndarray) -> None:
            src._accumulate(np.zeros_like(src.data))

        return Tensor.make(out_data, (src,), backward_empty)
    # reduceat quirk: an index pair (i, i) yields src[i], not 0, and any
    # start == len(src) raises — clip then zero out the empty segments.
    out_data = np.add.reduceat(src.data, np.minimum(starts, src.data.shape[0] - 1), axis=0)
    out_data[counts == 0] = 0.0

    def backward(grad: np.ndarray) -> None:
        src._accumulate(np.repeat(grad, counts, axis=0))

    return Tensor.make(out_data, (src,), backward)


def segment_mean(src, indptr) -> Tensor:
    """Mean-reduce contiguous row segments (empty segments get 0)."""
    src = _t(src)
    indptr = np.asarray(indptr, dtype=np.int64)
    counts = np.diff(indptr).astype(np.float64)
    divisor = np.maximum(counts, 1.0).reshape((len(counts),) + (1,) * (src.data.ndim - 1))
    return div(segment_sum(src, indptr), Tensor(divisor))


def circular_correlation(a, b) -> Tensor:
    """Circular correlation ``c[..., k] = sum_i a[..., i] * b[..., (i+k) % d]``.

    Computed as ``irfft(conj(rfft(a)) * rfft(b))`` — O(d log d) versus
    the O(d^2) roll-and-sum formulation, matching it to ~1e-13 at
    float64.  This is CompGCN's ``corr`` composition (and HolE's score).
    Gradients are themselves correlations/convolutions:
    ``dL/da = corr(g, b)`` and ``dL/db = conv(g, a)``, both via FFT.
    """
    a, b = _t(a), _t(b)
    d = a.data.shape[-1]
    if b.data.shape[-1] != d:
        raise ValueError(f"last-axis mismatch: {d} vs {b.data.shape[-1]}")
    fa = np.fft.rfft(a.data, axis=-1)
    fb = np.fft.rfft(b.data, axis=-1)
    out_data = np.fft.irfft(np.conj(fa) * fb, n=d, axis=-1)

    def backward(grad: np.ndarray) -> None:
        fg = np.fft.rfft(grad, axis=-1)
        ga = np.fft.irfft(np.conj(fg) * np.fft.rfft(b.data, axis=-1), n=d, axis=-1)
        gb = np.fft.irfft(fg * np.fft.rfft(a.data, axis=-1), n=d, axis=-1)
        a._accumulate(unbroadcast(ga, a.data.shape))
        b._accumulate(unbroadcast(gb, b.data.shape))

    return Tensor.make(out_data, (a, b), backward)
