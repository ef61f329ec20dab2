"""Dense n-d float tensors with a reverse-mode gradient tape.

Every primitive the codec needs lives here: 2-d (transposed) convolution,
dense affine maps, elementwise nonlinearities, per-channel batched matmuls
for the entropy model and reductions.  The finite-difference gradient
checker is in gradcheck.py; ``tensor.grad_check`` resolves to it.

add, sub, mul and div take two operands of the same shape, a scalar (a
one-element operand), or an operand of the same ndim whose every extent is
1 or the other's, broadcast along its axes of extent 1: a (1, C, 1, 1)
per-channel vector against an NCHW feature map, a (C, o, 1) bias against a
(C, o, M) activation.  Pairs that broadcast only to a third shape are
rejected.

Forward evaluation always works; gradients are recorded only while a
GradientTape is active.  Tapes are single use: one forward pass, one
backward pass.  A gradient has its input's dtype: a float32 program runs
its backward pass in float32, and the tape raises ContractViolation on a
primitive whose gradient comes back in another dtype.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np
from numpy.lib.stride_tricks import as_strided

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
    # inputs' data; it recomputes it from other values of them.  name is the
    # primitive that recorded the node
    __slots__ = ("name", "out", "inputs", "backward", "forward")

    def __init__(self, name, out, inputs, backward, forward):
        self.name = name
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
        """Accumulate d(loss)/d(p) for every tensor p of ``params``, by
        default every requires_grad leaf on the tape: a tensor that no
        recorded primitive made.

        Only the nodes that depend on ``params`` are walked.  Returns a dict
        keyed by Tensor identity, one entry per tensor of ``params``: exact
        zeros for one that ``loss`` does not depend on or that never
        appeared on the tape.  Raises ContractViolation for a tensor in
        ``params`` that the tape made, and when a primitive returns a
        gradient whose dtype differs from its input's.
        """
        if not isinstance(loss, Tensor) or loss.size != 1:
            raise ContractViolation("backward() needs a scalar loss tensor")
        if self._spent:
            raise RuntimeError("GradientTape is single use; record a new forward pass")
        self._spent = True

        if params is None:
            nodes = self._nodes
            made = {id(node.out) for node in nodes}
            params = list({id(inp): inp for node in nodes for inp in node.inputs
                           if inp.requires_grad and id(inp) not in made}.values())
        else:
            # one pass: what the tape made, and the nodes downstream of params
            made, reached, nodes = set(), {id(p) for p in params}, []
            for node in self._nodes:
                made.add(id(node.out))
                for inp in node.inputs:
                    if id(inp) in reached:
                        reached.add(id(node.out))
                        nodes.append(node)
                        break
            if not made.isdisjoint(map(id, params)):
                raise ContractViolation("backward(params=...) takes leaves; the tape made "
                                        "a tensor of params")

        flowing = {id(loss): np.ones_like(loss.data)}
        for node in reversed(nodes):
            g = flowing.pop(id(node.out), None)
            if g is None:
                continue
            for inp, gin in zip(node.inputs, node.backward(g)):
                if gin is None or not inp.requires_grad:
                    continue
                if gin.dtype != inp.data.dtype:
                    # not cast: a cast would hide the promotion and keep
                    # its cost, this primitive's work in the wider type
                    raise ContractViolation(
                        f"{node.name} returned a {gin.dtype} gradient for a "
                        f"{inp.data.dtype} input")
                have = flowing.get(id(inp))
                flowing[id(inp)] = gin if have is None else have + gin

        result = {}
        for p in params:
            g = flowing.get(id(p))
            result[p] = np.zeros_like(p.data) if g is None else np.ascontiguousarray(g)
        return result


def _record(name, out, inputs, backward, forward):
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            stack = getattr(_tls, "stack", None)
            if stack:
                stack[-1]._nodes.append(_Node(name, out, inputs, backward, forward))
            break
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
# strided windows of a feature map into such an array, or, for a small
# product, straight into its positions-major transpose (_positions);
# _col2im and _phase_scatter add one back.


def _im2col(x, kh, kw, stride, padding, rows):
    """The strided kh x kw windows of x, zero-padded by ``padding`` on each
    side, for a product with a (rows, C*kh*kw) kernel matrix.

    A product that is small for either of its two uses (the forward map
    and the kernel gradient, see _small_gemm) gets the (N*ho*wo, C*kh*kw)
    matrix whose row (n, i, j) is the window of output position (n, i, j),
    the layout those products multiply; a blocked one gets the (C, kh, kw,
    N, ho, wo) array, entry (c, a, b, n, i, j) tap (a, b) of channel c in
    the window of (n, i, j).  Either is a fresh C-contiguous copy of one
    strided view, never a view of x: callers keep it for backward.  1x1
    windows at stride 1 are the padded x itself, returned as a (C, N, H, W)
    view.
    """
    x = _pad_hw(x, padding)
    if kh == kw == stride == 1:
        return x.transpose(1, 0, 2, 3)
    n, c, h, w = x.shape
    ho, wo = (h - kh) // stride + 1, (w - kw) // stride + 1
    sn, sc, sh, sw = x.strides
    m, k = n * ho * wo, c * kh * kw
    if _small_gemm(rows, k, m) or _small_gemm(rows, m, k):
        return as_strided(x, (n, ho, wo, c, kh, kw),
                          (sn, sh * stride, sw * stride, sc, sh, sw)).copy().reshape(m, k)
    return as_strided(x, (c, kh, kw, n, ho, wo),
                      (sc, sh, sw, sn, sh * stride, sw * stride)).copy()


# Overlapping windows whose contribution matrix has at most this many
# elements are scattered by _col2im as one np.add.at over an index kept per
# shape; larger ones by _phase_scatter.  Measured on one core (float32, index
# kept), the two cross near this bound: 0.263 against 0.262 ms at 69,632
# elements.  A kept index costs 8 bytes per element: at most
# _SCATTER_INDICES of them, 512 KiB each, hold 16 MiB.
_SMALL_SCATTER = 1 << 16
_SCATTER_INDICES = 32


def _phase_major(kh, kw, stride, size):
    """Whether a scatter of ``size`` contribution elements runs through
    _phase_scatter: overlapping windows past _SMALL_SCATTER."""
    return (kh > stride or kw > stride) and size > _SMALL_SCATTER


def _col2im(contrib, canvas, kh, kw, stride, h, w):
    """Add a (C*kh*kw, N*h*w) contribution matrix into the strided NCHW canvas.

    The adjoint of _im2col.  Taps are added in (a, b) order, so every
    canvas pixel sums its contributions in that order.  Overlapping
    windows go through one unbuffered np.add.at, whose indices run in the
    contribution's own (c, a, b, n, i, j) order; callers send it at most
    _SMALL_SCATTER elements (_phase_major).  Windows that do not overlap
    (kh, kw <= stride) give every pixel at most one add, so they are added
    one tap slice at a time at any size.  canvas must be C-contiguous.
    """
    n, c, hc, wc = canvas.shape
    if kh > stride or kw > stride:
        np.add.at(canvas.reshape(-1), _scatter_index(c, kh, kw, stride, h, w, n, hc, wc),
                  contrib.reshape(-1))
        return canvas
    contrib = contrib.reshape(c, kh, kw, n, h, w)
    for a in range(kh):
        for b in range(kw):
            canvas[:, :, a : a + (h - 1) * stride + 1 : stride,
                   b : b + (w - 1) * stride + 1 : stride] += contrib[:, a, b].transpose(1, 0, 2, 3)
    return canvas


def _phase_scatter(contrib, out, kh, kw, stride, padding, h, v):
    """Write the scatter of a (C*kh*kw, N*h*v) contribution matrix, cropped
    by ``padding`` on each side, into the NCHW array ``out``.

    _col2im by stride phase.  Canvas pixel (i*stride + a, j*stride + b)
    receives tap (a, b) of window (i, j), so the pixels of one phase
    (a % stride, b % stride) receive only that phase's taps, tap (a, b) at
    position (i + a // stride, j + b // stride) of the phase's plane.  The
    contribution's windows run v >= w + (kw - 1) // stride wide, zero past
    the input's w columns; on a plane whose rows are v long, each tap is
    one flat slice at offset (a // stride)*v + b // stride, and what it
    adds past a row's end comes from those zero columns.  Every pixel
    starts at +0.0 and adds its taps in (a, b) order, as in _col2im: under
    round to nearest, a sum that starts at +0.0 never becomes -0.0, so the
    zero columns' +-0.0 leave every bit as it is.
    """
    n, c, ho, wo = out.shape
    rows = -(-(ho + 2 * padding) // stride) + 1
    contrib = contrib.reshape(c, kh, kw, n, h * v)
    plane = np.empty((c, n, rows * v), dtype=contrib.dtype)
    grid = plane.reshape(c, n, rows, v)
    for ry in range(stride):
        oy = (ry - padding) % stride
        u0 = (oy + padding) // stride
        for rx in range(stride):
            ox = (rx - padding) % stride
            v0 = (ox + padding) // stride
            target = out[:, :, oy::stride, ox::stride]
            plane.fill(0)
            for a in range(ry, kh, stride):
                for b in range(rx, kw, stride):
                    at = (a // stride) * v + b // stride
                    plane[:, :, at : at + h * v] += contrib[:, a, b]
            target[...] = grid[:, :, u0 : u0 + target.shape[2],
                               v0 : v0 + target.shape[3]].transpose(1, 0, 2, 3)
    return out


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
    # transposed NCHW array.  _im2col's positions matrix is transposed
    if arr.ndim == 2:
        return arr.T
    return arr.reshape(-1, arr.shape[-3] * arr.shape[-2] * arr.shape[-1])


def _positions(arr):
    # (C, N, h, w) -> (N*h*w, C), laid out as np.tensordot laid out the
    # same matrix, a view where one exists; _im2col's positions matrix is
    # already that matrix
    if arr.ndim == 2:
        return arr
    return arr.transpose(1, 2, 3, 0).reshape(-1, arr.shape[0])


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
    if _small_gemm(a.shape[0], a.shape[1], arr.size // a.shape[1]):
        return np.dot(_positions(arr), a.T).T
    return a @ _rows(arr)


def _kernel_grad(g, arr, shape):
    """_rows(g) @ _rows(arr).T, reshaped to the kernel's shape."""
    g2 = _rows(g)
    if _small_gemm(g2.shape[0], g2.shape[1], arr.size // g2.shape[1]):
        return np.dot(g2, _positions(arr)).reshape(shape)
    return (g2 @ _rows(arr).T).reshape(shape)


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
    # the padded input's rows and columns past the last window
    extra = ((h + 2 * padding - kh) % stride, (w + 2 * padding - kw) % stride)

    def backward(g):
        gx = None
        if x.requires_grad:
            gx = _conv2d_transpose(g, kernel.data, stride, padding, extra)
        gk = None
        if kernel.requires_grad:
            gk = _kernel_grad(g.transpose(1, 0, 2, 3), cols, kernel.shape)
        return gx, gk

    return _record("conv2d", out, (x, kernel), backward,
                   lambda a, k: _conv2d(a, k, stride, padding)[0])


def _conv2d(x, kernel, stride, padding):
    """conv2d's forward on arrays, and conv2d_transpose's input gradient:
    the output and the window buffer that a kernel gradient reads."""
    n, _, h, w = x.shape
    co, _, kh, kw = kernel.shape
    cols = _im2col(x, kh, kw, stride, padding, co)
    out = _matmul_positions(kernel.reshape(co, -1), cols).reshape(
        co, n, (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1)
    return np.ascontiguousarray(out.transpose(1, 0, 2, 3)), cols


def conv2d_transpose(x, kernel, stride=1, padding=0):
    """Transposed 2-d convolution (the adjoint of conv2d as a forward map).

    ``kernel`` has shape (C_in, C_out, K, K).  Output spatial extent is
    (H - 1)*stride - 2*pad + K + stride - 1, which inverts conv2d's shape
    map for inputs whose sides are multiples of the stride.
    """
    _check_conv_args(stride, padding)
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
    th = (h - 1) * stride - 2 * padding + kh + stride - 1
    tw = (w - 1) * stride - 2 * padding + kw + stride - 1
    if th <= 0 or tw <= 0:
        raise ContractViolation(
            f"conv2d_transpose output extent {th}x{tw} is not positive"
        )
    extra = (stride - 1, stride - 1)
    out = Tensor(_conv2d_transpose(x.data, kernel.data, stride, padding, extra))

    def backward(g):
        if x.requires_grad:
            gx, cols = _conv2d(g, kernel.data, stride, padding)
        else:
            gx, cols = None, _im2col(g, kh, kw, stride, padding, ki)
        gk = None
        if kernel.requires_grad:
            gk = _kernel_grad(x.data.transpose(1, 0, 2, 3), cols, kernel.shape)
        return gx, gk

    return _record("conv2d_transpose", out, (x, kernel), backward,
                   lambda a, k: _conv2d_transpose(a, k, stride, padding, extra))


def _conv2d_transpose(x, kernel, stride, padding, extra):
    """conv2d_transpose's forward on arrays, and conv2d's input gradient:
    the canvas reaches extra = (rows, columns) past the last window (stride
    - 1 for the forward map) before its padding is cropped."""
    n, ci, h, w = x.shape
    _, co, kh, kw = kernel.shape
    hc = (h - 1) * stride + kh + extra[0]
    wc = (w - 1) * stride + kw + extra[1]
    taps = kernel.reshape(ci, -1).T
    if _phase_major(kh, kw, stride, co * kh * kw * n * h * w):
        v = -(-wc // stride)
        wide = np.zeros((n, ci, h, v), dtype=x.dtype)
        wide[:, :, :, :w] = x
        out = np.empty((n, co, hc - 2 * padding, wc - 2 * padding), dtype=x.dtype)
        return _phase_scatter(_matmul_positions(taps, wide.transpose(1, 0, 2, 3)), out,
                              kh, kw, stride, padding, h, v)
    canvas = np.zeros((n, co, hc, wc), dtype=x.dtype)
    _col2im(_matmul_positions(taps, x.transpose(1, 0, 2, 3)), canvas, kh, kw, stride, h, w)
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

    return _record("affine", out, (x, weight, bias), backward, _affine)


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

    return _record("channel_matmul", out, (weight, h), backward, np.matmul)


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

    return _record("tanh_coupling", out, (h, gate), backward, _tanh_coupling)


def _tanh_coupling(h, gate):
    return h + np.tanh(gate) * np.tanh(h)


# ---------------------------------------------------------------------------
# elementwise


def _unary(name, x, fn, dfn):
    out = Tensor(fn(x.data))

    def backward(g):
        return (g * dfn(x.data, out.data) if x.requires_grad else None,)

    return _record(name, out, (x,), backward, fn)


def relu(x):
    return _unary("relu", x, lambda v: np.maximum(v, 0), lambda v, o: (v > 0).astype(v.dtype))


def exp(x):
    return _unary("exp", x, np.exp, lambda v, o: o)


def neg(x):
    return _unary("neg", x, np.negative, lambda v, o: np.float64(-1.0).astype(v.dtype))


def square(x):
    return _unary("square", x, np.square, lambda v, o: 2.0 * v)


def _sigmoid(v):
    # exp sees only -|v|, so nothing overflows, and the tails keep their
    # relative precision: 1/(1+e) for v >= 0, e/(1+e) below
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0, e) / (1.0 + e)


def sigmoid(x):
    return _unary("sigmoid", x, _sigmoid, lambda v, o: o * (1.0 - o))


def softplus(x):
    return _unary("softplus", x, lambda v: np.logaddexp(0.0, v), lambda v, o: _sigmoid(v))


def _domain_error(bad_mask, op_name, requirement):
    idx = tuple(int(i) for i in np.argwhere(bad_mask)[0])
    raise NumericDomainError(f"{op_name} requires {requirement}; violated at element {idx}")


def _check_positive(v, op_name):
    # one reduction: the min of an array holding a NaN is NaN, and NaN > 0
    # is False; the mask is built only to name the failing element
    if v.size and not v.min() > 0:
        _domain_error(~(v > 0), op_name, "strictly positive inputs")


def sqrt(x):
    return _unary("sqrt", x, _sqrt, lambda v, o: 0.5 / o)


def _sqrt(v):
    _check_positive(v, "sqrt")
    return np.sqrt(v)


def log2(x):
    # a Python float: NumPy 2 promotes a float32 array divided by a NumPy
    # float64 scalar to float64
    inv_ln2 = float(1.0 / np.log(2.0))
    return _unary("log2", x, _log2, lambda v, o: inv_ln2 / v)


def _log2(v):
    _check_positive(v, "log2")
    return np.log2(v)


def _binary_operands(a, b, op_name):
    if not isinstance(a, Tensor):
        a = _as_constant(a, like=b if isinstance(b, Tensor) else None)
    if not isinstance(b, Tensor):
        b = _as_constant(b, like=a)
    if not (_broadcasts(a, b) or _broadcasts(b, a)):
        raise ContractViolation(
            f"{op_name} needs equal shapes, a scalar operand or one that broadcasts "
            f"to the other's shape, got {a.shape} and {b.shape}"
        )
    return a, b


def _broadcasts(x, to):
    # equal shapes, one element, or x has to's ndim and each of its extents
    # is 1 or to's
    if x.shape == to.shape:
        return True
    return x.size == 1 or (x.ndim == to.ndim
                           and all(s in (1, t) for s, t in zip(x.shape, to.shape)))


def _shrink_to(g, tensor):
    # sum a full-shape gradient back to an operand's shape: over every
    # element for a one-element operand, else over its broadcast axes
    if g.shape == tensor.shape:
        return g
    if tensor.size == 1:
        return np.asarray(g.sum(), dtype=g.dtype).reshape(tensor.shape)
    return g.sum(axis=tuple(i for i, s in enumerate(tensor.shape) if s != g.shape[i]),
                 keepdims=True)


def add(a, b):
    a, b = _binary_operands(a, b, "add")
    out = Tensor(np.add(a.data, b.data))

    def backward(g):
        ga = _shrink_to(g, a) if a.requires_grad else None
        gb = _shrink_to(g, b) if b.requires_grad else None
        return ga, gb

    return _record("add", out, (a, b), backward, np.add)


def sub(a, b):
    a, b = _binary_operands(a, b, "sub")
    out = Tensor(np.subtract(a.data, b.data))

    def backward(g):
        ga = _shrink_to(g, a) if a.requires_grad else None
        gb = _shrink_to(-g, b) if b.requires_grad else None
        return ga, gb

    return _record("sub", out, (a, b), backward, np.subtract)


def mul(a, b):
    a, b = _binary_operands(a, b, "mul")
    out = Tensor(np.multiply(a.data, b.data))

    def backward(g):
        ga = _shrink_to(g * b.data, a) if a.requires_grad else None
        gb = _shrink_to(g * a.data, b) if b.requires_grad else None
        return ga, gb

    return _record("mul", out, (a, b), backward, np.multiply)


def div(a, b):
    a, b = _binary_operands(a, b, "div")
    out = Tensor(_div(a.data, b.data))

    def backward(g):
        ga = _shrink_to(g / b.data, a) if a.requires_grad else None
        gb = _shrink_to(-g * out.data / b.data, b) if b.requires_grad else None
        return ga, gb

    return _record("div", out, (a, b), backward, _div)


def _div(a, b):
    # one reduction: all() counts NaN as nonzero, as b != 0 does
    if not b.all():
        _domain_error(b == 0, "div", "a nonzero divisor")
    return a / b


# ---------------------------------------------------------------------------
# reductions and shape ops


def _reduce(x, mean):
    name, fn = ("reduce_mean", _mean) if mean else ("reduce_sum", _sum)
    out = Tensor(fn(x.data))

    def backward(g):
        if not x.requires_grad:
            return (None,)
        g_full = np.broadcast_to(g.reshape((1,) * x.ndim), x.shape)
        if mean:
            g_full = g_full / x.size
        return (np.ascontiguousarray(g_full),)

    return _record(name, out, (x,), backward, fn)


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

    return _record("reshape", out, (x,), backward, forward)


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

    return _record("transpose", out, (x,), backward, forward)


def __getattr__(name):
    # gradcheck.py imports this module, so grad_check is looked up there
    # on first use
    if name == "grad_check":
        from .gradcheck import grad_check
        return grad_check
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
