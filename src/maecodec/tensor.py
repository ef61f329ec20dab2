"""Dense n-d float tensors with a reverse-mode gradient tape.

Every primitive the codec needs lives here: 2-d (transposed) convolution,
dense affine maps, elementwise nonlinearities, channel-broadcast scale/shift
for NCHW feature maps, per-channel batched matmuls for the entropy model,
reductions, and a finite-difference gradient checker.

Forward evaluation always works; gradients are recorded only while a
GradientTape is active.  Tapes are single use: one forward pass, one
backward pass.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import expit as _expit

from .exceptions import ContractViolation, NumericDomainError

_FLOAT_TYPES = (np.float32, np.float64)


class Tensor:
    """A dense float array plus a requires_grad flag.

    ``data`` is always a C-contiguous float32/float64 ndarray.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad=False):
        # an ndarray that already qualifies is kept as is; anything else
        # (0-d arrays included, which become 1-d) is converted
        if not (type(data) is np.ndarray and data.ndim
                and data.dtype.type in _FLOAT_TYPES and data.flags.c_contiguous):
            arr = np.asarray(data)
            if arr.dtype.type not in _FLOAT_TYPES:
                arr = arr.astype(np.float64)
            data = np.ascontiguousarray(arr)
        self.data = data
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        if self.data.size != 1:
            raise ContractViolation(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class _Node:
    # forward(*arrays) is the ndarray kernel that computed out.data from the
    # inputs' data; it recomputes it from other values of them
    __slots__ = ("out", "inputs", "backward", "forward")

    def __init__(self, out, inputs, backward, forward):
        self.out = out
        self.inputs = inputs
        self.backward = backward
        self.forward = forward


_tls = threading.local()


def _tape_stack():
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


class GradientTape:
    """Ordered record of executed primitives for one forward pass.

    Use as a context manager around the forward computation, then call
    ``backward(loss)`` exactly once.  The tape is confined to the thread
    that opened it.
    """

    def __init__(self):
        self._nodes = []
        self._spent = False

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise RuntimeError("GradientTape exited out of order")
        stack.pop()
        return False

    def backward(self, loss, params=None):
        """Accumulate d(loss)/d(tensor) for every requires_grad tensor.

        Returns a dict keyed by Tensor identity.  Tensors recorded on the
        tape but not reachable from ``loss`` get exact zeros, as does any
        tensor in ``params`` that never appeared on the tape.
        """
        if not isinstance(loss, Tensor) or loss.size != 1:
            raise ContractViolation("backward() needs a scalar loss tensor")
        if self._spent:
            raise RuntimeError("GradientTape is single use; record a new forward pass")
        self._spent = True

        flowing = {id(loss): np.ones_like(loss.data)}
        watched = {}
        for node in reversed(self._nodes):
            for inp in node.inputs:
                if inp.requires_grad and id(inp) not in watched:
                    watched[id(inp)] = inp
            g = flowing.pop(id(node.out), None)
            if g is None:
                continue
            for inp, gin in zip(node.inputs, node.backward(g)):
                if gin is None or not inp.requires_grad:
                    continue
                have = flowing.get(id(inp))
                flowing[id(inp)] = gin if have is None else have + gin

        result = {}
        for key, t in watched.items():
            g = flowing.get(key)
            result[t] = np.zeros_like(t.data) if g is None else np.ascontiguousarray(g)
        if params is not None:
            for p in params:
                if p not in result:
                    result[p] = np.zeros_like(p.data)
        return result


def _record(out, inputs, backward, forward):
    stack = getattr(_tls, "stack", None)
    out.requires_grad = any(t.requires_grad for t in inputs)
    if stack and out.requires_grad:
        stack[-1]._nodes.append(_Node(out, inputs, backward, forward))
    return out


def _as_constant(value, like=None):
    dtype = like.dtype if like is not None else None
    return Tensor(np.asarray(value, dtype=dtype))


# ---------------------------------------------------------------------------
# convolution


def _pad_hw(x, pad):
    if pad == 0:
        return x
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    out[:, :, pad : pad + h, pad : pad + w] = x
    return out


# Convolutions run as GEMMs over channels-first arrays: an array of shape
# (..., N, h, w) stands for the matrix whose columns are its N*h*w spatial
# positions and whose rows flatten the leading axes.  _im2col gathers the
# strided windows of a feature map into such an array, _col2im adds one
# back into a canvas.


def _im2col(x, kh, kw, stride, ho, wo):
    """(C, kh, kw, N, ho, wo) array of the strided kh x kw windows of x.

    Entry (c, a, b, n, i, j) is tap (a, b) of channel c in the window of
    output position (n, i, j).  The result is a fresh C-contiguous copy of
    one strided view, never a view of x: callers keep it for backward.
    1x1 windows at stride 1 are x itself, returned as a (C, N, H, W) view.
    """
    if kh == kw == stride == 1:
        return x.transpose(1, 0, 2, 3)
    n, c = x.shape[:2]
    sn, sc, sh, sw = x.strides
    return as_strided(x, (c, kh, kw, n, ho, wo),
                      (sc, sh, sw, sn, sh * stride, sw * stride)).copy()


# _col2im scatters of at most this many contribution elements, from
# overlapping windows, run as one np.add.at over an index kept per shape.
# Measured on one core (float32, index kept), add.at beat the per-tap loop
# up to about 2**17.5 elements for 4x4 windows at stride 2, 2**19 for 5x5
# at stride 2 and 2**19.5 for 9x9 at stride 4.  The bound sits below those
# crossovers because a kept index costs 8 bytes per element: at most
# _SCATTER_INDICES of them, 512 KiB each, hold 16 MiB.
_SMALL_SCATTER = 1 << 16
_SCATTER_INDICES = 32


def _col2im(contrib, canvas, kh, kw, stride, h, w):
    """Add a (C*kh*kw, N*h*w) contribution matrix into the strided NCHW canvas.

    The adjoint of _im2col.  Taps are added in (a, b) order, so every
    canvas pixel sums its contributions in that order.  Up to
    _SMALL_SCATTER elements of overlapping windows go through one
    unbuffered np.add.at, whose indices run in the contribution's own
    (c, a, b, n, i, j) order; larger ones are added one tap slice at a
    time.  Windows that do not overlap (kh, kw <= stride) give every
    pixel at most one add, the same in either path, so they always take
    the tap loop.  canvas must be C-contiguous.
    """
    n, c, hc, wc = canvas.shape
    if contrib.size <= _SMALL_SCATTER and (kh > stride or kw > stride):
        np.add.at(canvas.reshape(-1), _scatter_index(c, kh, kw, stride, h, w, n, hc, wc),
                  contrib.reshape(-1))
        return canvas
    contrib = contrib.reshape(c, kh, kw, n, h, w)
    for a in range(kh):
        for b in range(kw):
            canvas[:, :, a : a + (h - 1) * stride + 1 : stride,
                   b : b + (w - 1) * stride + 1 : stride] += contrib[:, a, b].transpose(1, 0, 2, 3)
    return canvas


@functools.lru_cache(maxsize=_SCATTER_INDICES)
def _scatter_index(c, kh, kw, stride, h, w, n, hc, wc):
    """Read-only flat index into an (n, c, hc, wc) canvas of every element
    of a (c, kh, kw, n, h, w) contribution, in that order."""
    rows = np.arange(kh)[:, None] + stride * np.arange(h)
    cols = np.arange(kw)[:, None] + stride * np.arange(w)
    index = (np.arange(c).reshape(c, 1, 1, 1, 1, 1) * (hc * wc)
             + np.arange(n).reshape(1, 1, 1, n, 1, 1) * (c * hc * wc)
             + rows.reshape(1, kh, 1, 1, h, 1) * wc
             + cols.reshape(1, 1, kw, 1, 1, w)).reshape(-1)
    index.setflags(write=False)
    return index


def _rows(arr):
    # (..., N, h, w) -> (rows, N*h*w); a view unless N > 1 and arr is a
    # transposed NCHW array
    return arr.reshape(-1, arr.shape[-3] * arr.shape[-2] * arr.shape[-1])


def _positions(arr):
    # (..., N, h, w) -> (N*h*w, rows), laid out as np.tensordot laid out
    # the same matrix: a view of a (C, N, h, w) array where one exists, a
    # C-contiguous copy of a (C, kh, kw, N, h, w) window buffer
    lead = arr.ndim - 3
    axes = (lead, lead + 1, lead + 2) + tuple(range(lead))
    mat = arr.transpose(axes).reshape(arr.shape[-3] * arr.shape[-2] * arr.shape[-1], -1)
    return mat if lead == 1 else np.ascontiguousarray(mat)


# Small products (at most _SMALL_GEMM multiply-adds) and matrix-vector
# products are formed with the spatial positions as rows, from operands
# laid out as np.tensordot lays them out for the sliding-window formulation
# (tests/reference_conv.py).  OpenBLAS (0.3.31, AVX-512) sends products of
# up to 10**6 multiply-adds to small-matrix kernels, and matrix-vector
# products to gemv, whose summation order depends on the operands' layout;
# this layout keeps their sums bit for bit.  Larger products run through
# the blocked GEMM, which packs its operands and sums the same way in
# either layout.
_SMALL_GEMM = 1 << 21


def _small_gemm(p, q, m):
    return p * q * m <= _SMALL_GEMM or min(p, m) == 1


def _matmul_positions(a, arr):
    """a (p, q) @ _rows(arr) -> (p, N*h*w)."""
    m = arr.shape[-3] * arr.shape[-2] * arr.shape[-1]
    if _small_gemm(a.shape[0], a.shape[1], m):
        return np.dot(_positions(arr), a.T).T
    return a @ _rows(arr)


def _kernel_grad(g, arr, shape):
    """_rows(g) @ _rows(arr).T, reshaped to the kernel's shape."""
    g2 = _rows(g)
    if _small_gemm(g2.shape[0], g2.shape[1], arr.size // g2.shape[1]):
        return np.dot(g2, _positions(arr)).reshape(shape)
    return (g2 @ _rows(arr).T).reshape(shape)


def _channels_first(mat, n, h, w):
    # (C, N*h*w) GEMM output -> contiguous (N, C, h, w)
    return np.ascontiguousarray(mat.reshape(-1, n, h, w).transpose(1, 0, 2, 3))


def _check_conv_args(stride, padding):
    if not (isinstance(stride, (int, np.integer)) and stride >= 1):
        raise ContractViolation(f"stride must be a positive int, got {stride!r}")
    if not (isinstance(padding, (int, np.integer)) and padding >= 0):
        raise ContractViolation(f"padding must be a nonnegative int, got {padding!r}")


def conv2d(x, kernel, stride=1, padding=0):
    """Strided 2-d cross-correlation of an NCHW batch with an OIKK kernel.

    Output spatial extent per axis is floor((H + 2*pad - K)/stride) + 1.
    """
    _check_conv_args(stride, padding)
    if x.ndim != 4 or kernel.ndim != 4:
        raise ContractViolation(
            f"conv2d expects 4-d input and kernel, got {x.shape} and {kernel.shape}"
        )
    n, ci, h, w = x.shape
    co, ki, kh, kw = kernel.shape
    if ci != ki:
        raise ContractViolation(
            f"conv2d channel mismatch: input has {ci} channels, kernel expects {ki}"
        )
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ContractViolation(
            f"conv2d kernel {kh}x{kw} does not fit input {h}x{w} with padding {padding}"
        )

    out_data, cols = _conv2d(x.data, kernel.data, stride, padding)
    out = Tensor(out_data)
    ho, wo = out_data.shape[2:]

    def backward(g):
        kmat = kernel.data.reshape(co, -1)
        gt = g.transpose(1, 0, 2, 3)
        gx = None
        if x.requires_grad:
            canvas = np.zeros((n, ci, h + 2 * padding, w + 2 * padding), dtype=g.dtype)
            _col2im(_matmul_positions(kmat.T, gt), canvas, kh, kw, stride, ho, wo)
            gx = canvas if padding == 0 else np.ascontiguousarray(
                canvas[:, :, padding : padding + h, padding : padding + w])
        gk = None
        if kernel.requires_grad:
            gk = _kernel_grad(gt, cols, kernel.shape)
        return gx, gk

    return _record(out, (x, kernel), backward, lambda a, k: _conv2d(a, k, stride, padding)[0])


def _conv2d(x, kernel, stride, padding):
    """conv2d's forward on arrays: the output and the window buffer that
    its backward pass keeps."""
    n, _, h, w = x.shape
    co, _, kh, kw = kernel.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    cols = _im2col(_pad_hw(x, padding), kh, kw, stride, ho, wo)
    return _channels_first(_matmul_positions(kernel.reshape(co, -1), cols), n, ho, wo), cols


def conv2d_transpose(x, kernel, stride=1, padding=0, output_padding=None):
    """Transposed 2-d convolution (the adjoint of conv2d as a forward map).

    ``kernel`` has shape (C_in, C_out, K, K).  Output spatial extent is
    (H - 1)*stride - 2*pad + K + output_padding.  The default
    output_padding of stride - 1 makes the op invert conv2d's shape map
    for inputs whose sides are multiples of the stride.
    """
    _check_conv_args(stride, padding)
    if output_padding is None:
        output_padding = stride - 1
    if not 0 <= output_padding < stride:
        raise ContractViolation(
            f"output_padding must be in [0, stride), got {output_padding} with stride {stride}"
        )
    if x.ndim != 4 or kernel.ndim != 4:
        raise ContractViolation(
            f"conv2d_transpose expects 4-d input and kernel, got {x.shape} and {kernel.shape}"
        )
    n, ci, h, w = x.shape
    ki, co, kh, kw = kernel.shape
    if ci != ki:
        raise ContractViolation(
            f"conv2d_transpose channel mismatch: input has {ci} channels, kernel expects {ki}"
        )
    th = (h - 1) * stride - 2 * padding + kh + output_padding
    tw = (w - 1) * stride - 2 * padding + kw + output_padding
    if th <= 0 or tw <= 0:
        raise ContractViolation(
            f"conv2d_transpose output extent {th}x{tw} is not positive"
        )
    canvas_shape = (n, co, (h - 1) * stride + kh + output_padding,
                    (w - 1) * stride + kw + output_padding)
    out = Tensor(_conv2d_transpose(x.data, kernel.data, stride, padding, output_padding))

    def backward(g):
        # re-embed the gradient into canvas coordinates, then gather windows
        canvas = np.zeros(canvas_shape, dtype=g.dtype)
        canvas[:, :, padding : padding + th, padding : padding + tw] = g
        cols = _im2col(canvas, kh, kw, stride, h, w)
        gx = None
        if x.requires_grad:
            gx = _channels_first(_matmul_positions(kernel.data.reshape(ci, -1), cols), n, h, w)
        gk = None
        if kernel.requires_grad:
            gk = _kernel_grad(x.data.transpose(1, 0, 2, 3), cols, kernel.shape)
        return gx, gk

    return _record(out, (x, kernel), backward,
                   lambda a, k: _conv2d_transpose(a, k, stride, padding, output_padding))


def _conv2d_transpose(x, kernel, stride, padding, output_padding):
    """conv2d_transpose's forward on arrays."""
    n, ci, h, w = x.shape
    _, co, kh, kw = kernel.shape
    hc = (h - 1) * stride + kh + output_padding
    wc = (w - 1) * stride + kw + output_padding
    canvas = np.zeros((n, co, hc, wc), dtype=x.dtype)
    _col2im(_matmul_positions(kernel.reshape(ci, -1).T, x.transpose(1, 0, 2, 3)),
            canvas, kh, kw, stride, h, w)
    return np.ascontiguousarray(canvas[:, :, padding : hc - padding, padding : wc - padding])


# ---------------------------------------------------------------------------
# dense / per-channel linear maps


def affine(x, weight, bias):
    """y = x @ weight + bias for x of shape (B, n), weight (n, m), bias (m,)."""
    if x.ndim != 2 or weight.ndim != 2 or bias.ndim != 1:
        raise ContractViolation(
            f"affine expects (B,n) x (n,m) + (m,), got {x.shape}, {weight.shape}, {bias.shape}"
        )
    if x.shape[1] != weight.shape[0] or weight.shape[1] != bias.shape[0]:
        raise ContractViolation(
            f"affine inner extents disagree: {x.shape} @ {weight.shape} + {bias.shape}"
        )
    out = Tensor(_affine(x.data, weight.data, bias.data))

    def backward(g):
        gx = g @ weight.data.T if x.requires_grad else None
        gw = x.data.T @ g if weight.requires_grad else None
        gb = g.sum(axis=0) if bias.requires_grad else None
        return gx, gw, gb

    return _record(out, (x, weight, bias), backward, _affine)


def _affine(x, weight, bias):
    return x @ weight + bias


def channel_matmul(weight, h):
    """Batched per-channel matmul: (C, o, i) @ (C, i, M) -> (C, o, M)."""
    if weight.ndim != 3 or h.ndim != 3 or weight.shape[0] != h.shape[0] \
            or weight.shape[2] != h.shape[1]:
        raise ContractViolation(
            f"channel_matmul shapes disagree: {weight.shape} @ {h.shape}"
        )
    out = Tensor(np.matmul(weight.data, h.data))

    def backward(g):
        gw = np.matmul(g, h.data.transpose(0, 2, 1)) if weight.requires_grad else None
        gh = np.matmul(weight.data.transpose(0, 2, 1), g) if h.requires_grad else None
        return gw, gh

    return _record(out, (weight, h), backward, np.matmul)


def channel_bias(h, bias):
    """Add a (C, o, 1) bias to a (C, o, M) activation."""
    if h.ndim != 3 or bias.shape != (h.shape[0], h.shape[1], 1):
        raise ContractViolation(
            f"channel_bias expects bias {(h.shape[0], h.shape[1], 1)}, got {bias.shape}"
        )
    out = Tensor(np.add(h.data, bias.data))

    def backward(g):
        gh = g if h.requires_grad else None
        gb = g.sum(axis=2, keepdims=True) if bias.requires_grad else None
        return gh, gb

    return _record(out, (h, bias), backward, np.add)


def tanh_coupling(h, gate):
    """h + tanh(gate) * tanh(h) with gate of shape (C, o, 1).

    Monotone in h as long as tanh(gate) > -1, which always holds.
    """
    if h.ndim != 3 or gate.shape != (h.shape[0], h.shape[1], 1):
        raise ContractViolation(
            f"tanh_coupling expects gate {(h.shape[0], h.shape[1], 1)}, got {gate.shape}"
        )
    out = Tensor(_tanh_coupling(h.data, gate.data))

    def backward(g):
        th = np.tanh(h.data)
        tg = np.tanh(gate.data)
        gh = g * (1.0 + tg * (1.0 - th * th)) if h.requires_grad else None
        gg = None
        if gate.requires_grad:
            gg = (g * th).sum(axis=2, keepdims=True) * (1.0 - tg * tg)
        return gh, gg

    return _record(out, (h, gate), backward, _tanh_coupling)


def _tanh_coupling(h, gate):
    return h + np.tanh(gate) * np.tanh(h)


def channel_scale(x, vec):
    """Multiply an NCHW tensor by a per-channel vector, broadcast over N, H, W."""
    if x.ndim != 4 or vec.ndim != 1 or vec.shape[0] != x.shape[1]:
        raise ContractViolation(
            f"channel_scale needs a length-{x.shape[1]} vector, got shape {vec.shape}"
        )
    out = Tensor(_channel_scale(x.data, vec.data))

    def backward(g):
        gx = g * vec.data.reshape(1, -1, 1, 1) if x.requires_grad else None
        gv = (g * x.data).sum(axis=(0, 2, 3)) if vec.requires_grad else None
        return gx, gv

    return _record(out, (x, vec), backward, _channel_scale)


def _channel_scale(x, vec):
    return x * vec.reshape(1, -1, 1, 1)


def channel_shift(x, vec):
    """Add a per-channel vector to an NCHW tensor, broadcast over N, H, W."""
    if x.ndim != 4 or vec.ndim != 1 or vec.shape[0] != x.shape[1]:
        raise ContractViolation(
            f"channel_shift needs a length-{x.shape[1]} vector, got shape {vec.shape}"
        )
    out = Tensor(_channel_shift(x.data, vec.data))

    def backward(g):
        gx = g if x.requires_grad else None
        gv = g.sum(axis=(0, 2, 3)) if vec.requires_grad else None
        return gx, gv

    return _record(out, (x, vec), backward, _channel_shift)


def _channel_shift(x, vec):
    return x + vec.reshape(1, -1, 1, 1)


# ---------------------------------------------------------------------------
# elementwise


def _unary(x, fn, dfn):
    out = Tensor(fn(x.data))

    def backward(g):
        return (g * dfn(x.data, out.data) if x.requires_grad else None,)

    return _record(out, (x,), backward, fn)


def relu(x):
    return _unary(x, lambda v: np.maximum(v, 0), lambda v, o: (v > 0).astype(v.dtype))


def exp(x):
    return _unary(x, np.exp, lambda v, o: o)


def neg(x):
    return _unary(x, np.negative, lambda v, o: np.float64(-1.0).astype(v.dtype))


def square(x):
    return _unary(x, np.square, lambda v, o: 2.0 * v)


def sigmoid(x):
    return _unary(x, _expit, lambda v, o: o * (1.0 - o))


def softplus(x):
    return _unary(x, lambda v: np.logaddexp(0.0, v).astype(v.dtype), lambda v, o: _expit(v))


def _domain_check(ok_mask, op_name, requirement):
    if not ok_mask.all():
        idx = tuple(int(i) for i in np.argwhere(~ok_mask)[0])
        raise NumericDomainError(
            f"{op_name} requires {requirement}; violated at element {idx}"
        )


def sqrt(x):
    return _unary(x, _sqrt, lambda v, o: 0.5 / o)


def _sqrt(v):
    _domain_check(v > 0, "sqrt", "strictly positive inputs")
    return np.sqrt(v)


def log2(x):
    inv_ln2 = 1.0 / np.log(2.0)
    return _unary(x, _log2, lambda v, o: inv_ln2 / v)


def _log2(v):
    _domain_check(v > 0, "log2", "strictly positive inputs")
    return np.log2(v)


def _binary_operands(a, b, op_name):
    if not isinstance(a, Tensor):
        a = _as_constant(a, like=b if isinstance(b, Tensor) else None)
    if not isinstance(b, Tensor):
        b = _as_constant(b, like=a)
    if a.shape != b.shape and a.size != 1 and b.size != 1:
        raise ContractViolation(
            f"{op_name} needs equal shapes or a scalar operand, got {a.shape} and {b.shape}"
        )
    return a, b


def _shrink_to(g, tensor):
    # reduce a full-shape gradient back to a scalar operand's shape
    if g.shape == tensor.shape:
        return g
    return np.asarray(g.sum(), dtype=g.dtype).reshape(tensor.shape)


def add(a, b):
    a, b = _binary_operands(a, b, "add")
    out = Tensor(np.add(a.data, b.data))

    def backward(g):
        ga = _shrink_to(g, a) if a.requires_grad else None
        gb = _shrink_to(g, b) if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), backward, np.add)


def sub(a, b):
    a, b = _binary_operands(a, b, "sub")
    out = Tensor(np.subtract(a.data, b.data))

    def backward(g):
        ga = _shrink_to(g, a) if a.requires_grad else None
        gb = _shrink_to(-g, b) if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), backward, np.subtract)


def mul(a, b):
    a, b = _binary_operands(a, b, "mul")
    out = Tensor(np.multiply(a.data, b.data))

    def backward(g):
        ga = _shrink_to(g * b.data, a) if a.requires_grad else None
        gb = _shrink_to(g * a.data, b) if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), backward, np.multiply)


def div(a, b):
    a, b = _binary_operands(a, b, "div")
    out = Tensor(_div(a.data, b.data))

    def backward(g):
        ga = _shrink_to(g / b.data, a) if a.requires_grad else None
        gb = _shrink_to(-g * out.data / b.data, b) if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), backward, _div)


def _div(a, b):
    _domain_check(b != 0, "div", "a nonzero divisor")
    return a / b


# ---------------------------------------------------------------------------
# reductions and shape ops


def _reduce(x, mean):
    fn = _mean if mean else _sum
    out = Tensor(fn(x.data))

    def backward(g):
        if not x.requires_grad:
            return (None,)
        g_full = np.broadcast_to(g.reshape((1,) * x.ndim), x.shape)
        if mean:
            g_full = g_full / x.size
        return (np.ascontiguousarray(g_full),)

    return _record(out, (x,), backward, fn)


# Reductions name every axis (axis=None could pair the terms differently)
# and return shape (1,), the shape of the tensor they make.


def _sum(v):
    return v.sum(axis=tuple(range(v.ndim))).reshape(1)


def _mean(v):
    return v.mean(axis=tuple(range(v.ndim))).reshape(1)


def reduce_sum(x):
    """Exact sum of every element, as a one-element tensor."""
    return _reduce(x, mean=False)


def reduce_mean(x):
    """Arithmetic mean of every element, as a one-element tensor."""
    return _reduce(x, mean=True)


def reshape(x, shape):
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != x.size:
        raise ContractViolation(f"cannot reshape {x.shape} to {shape}")

    def forward(v):
        return v.reshape(shape)

    out = Tensor(forward(x.data))

    def backward(g):
        return (g.reshape(x.shape) if x.requires_grad else None,)

    return _record(out, (x,), backward, forward)


def transpose(x, axes):
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ContractViolation(f"transpose axes {axes} are not a permutation for ndim {x.ndim}")

    def forward(v):
        return np.ascontiguousarray(v.transpose(axes))

    out = Tensor(forward(x.data))
    inverse = tuple(np.argsort(axes))

    def backward(g):
        return (np.ascontiguousarray(g.transpose(inverse)) if x.requires_grad else None,)

    return _record(out, (x,), backward, forward)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(fn, inputs):
    """Max relative error between analytic and central-difference gradients.

    ``fn`` maps the given tensors to a scalar Tensor.  It must be
    deterministic, and its value must depend on its inputs only through
    this module's primitives: the program is recorded once, and each
    difference reruns only the recorded kernels downstream of the
    perturbed input.  A program that breaks this contract, for example by
    reading an input's ``.data`` into a constant or by drawing fresh noise
    per call, raises ContractViolation.  Inputs must sit in the interior
    of every domain the program touches.  Everything is evaluated in
    double precision.  Returns max over coordinates of
    |analytic - numeric| / (|analytic| + 1e-8).
    """
    work = [Tensor(t.data.astype(np.float64), requires_grad=t.requires_grad) for t in inputs]
    with GradientTape() as tape:
        loss = fn(*work)
    if loss.size != 1:
        raise ContractViolation("grad_check needs a scalar-valued program")
    grads = tape.backward(loss)

    eps = 1e-4  # central-difference step
    worst = 0.0
    checked = [t for t in work if t.requires_grad]
    for t, numeric in zip(checked, _numeric_gradients(fn, work, tape, loss, eps)):
        g = grads.get(t)
        analytic = np.zeros_like(t.data) if g is None else g
        worst = np.max(np.abs(analytic - numeric) / (np.abs(analytic) + 1e-8), initial=worst)
    return float(worst)


def _numeric_gradients(fn, work, tape, loss, eps):
    """(f(t + eps) - f(t - eps)) / (2 eps) per coordinate of each input of
    ``work`` that requires grad, one array per input.

    ``tape`` recorded ``loss = fn(*work)``.  Each f+- replays the nodes
    downstream of the perturbed input against the recorded outputs of all
    others: each node's kernel on the same arrays as a call of ``fn``, so
    the same bits.  First, one call of ``fn`` at a seeded +-eps
    perturbation of every input must match the replay bit for bit, or a
    value that bypasses the tape, or a kernel that differs from its
    primitive, would go unseen.
    """
    checked = [t for t in work if t.requires_grad]
    saved = [t.data.copy() for t in checked]
    signs = np.random.default_rng(0x67726164)
    for t in checked:
        t.data += eps * signs.choice((-1.0, 1.0), size=t.shape)
    called = fn(*work).item()
    replayed = _replay(_downstream(tape._nodes, checked), loss).item()
    for t, data in zip(checked, saved):
        np.copyto(t.data, data)
    if called.hex() != replayed.hex():
        raise ContractViolation(
            f"grad_check: fn gives {called!r} where its recorded primitives give {replayed!r}; "
            "fn must be deterministic and see its inputs only through tensor primitives")

    numeric = []
    for t in checked:
        nodes = _downstream(tape._nodes, [t])
        flat = t.data.reshape(-1)
        diffs = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = _replay(nodes, loss).item()
            flat[i] = orig - eps
            f_minus = _replay(nodes, loss).item()
            flat[i] = orig
            diffs[i] = (f_plus - f_minus) / (2.0 * eps)
        numeric.append(diffs.reshape(t.shape))
    return numeric


def _downstream(nodes, sources):
    """The nodes whose output depends on a tensor of ``sources``, in tape order."""
    reached = {id(t) for t in sources}
    picked = []
    for node in nodes:
        if any(id(inp) in reached for inp in node.inputs):
            reached.add(id(node.out))
            picked.append(node)
    return picked


def _replay(nodes, loss):
    """``loss.data`` recomputed by rerunning the kernels of ``nodes``, each
    on the fresh outputs of earlier ones and the recorded outputs of all
    other nodes."""
    fresh = {}
    for node in nodes:
        fresh[id(node.out)] = node.forward(*[fresh.get(id(inp), inp.data) for inp in node.inputs])
    return fresh.get(id(loss), loss.data)
