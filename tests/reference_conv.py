"""Known-answer references for the convolutions.

``conv2d`` and ``conv2d_transpose`` here are the sliding-window forms the
codec used before its im2col/col2im GEMMs: windows are a strided
``sliding_window_view``, every product is one ``np.tensordot``, and the
transposed direction scatters a (N, C, H, W, kh, kw) contribution array
tap by tap.  They are slower, but each direction is a few plain lines.
The codec's convolutions must match them for the forward map and both
gradients, within a few float32 rounding steps (their GEMMs may sum in
another order), and its scatters must add the same contributions to the
same float32 bits as ``_scatter_windows``.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from maecodec.exceptions import ContractViolation
from maecodec.tensor import Tensor, _check_conv_args, _pad_hw, _record


def _strided_windows(x, kh, kw, stride):
    # x: (N, C, H, W) -> (N, C, Ho, Wo, kh, kw) view
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))
    return win[:, :, ::stride, ::stride]


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

    def forward(xdata, kdata):
        win = _strided_windows(_pad_hw(xdata, padding), kh, kw, stride)
        out = np.tensordot(win, kdata, axes=([1, 4, 5], [1, 2, 3]))
        return np.ascontiguousarray(out.transpose(0, 3, 1, 2))

    out = Tensor(forward(x.data, kernel.data))

    def backward(g):
        gx = None
        if x.requires_grad:
            gx = _conv2d_input_grad(g, kernel.data, x.shape, stride, padding)
        gk = None
        if kernel.requires_grad:
            gwin = _strided_windows(_pad_hw(x.data, padding), kh, kw, stride)
            gk = np.tensordot(g, gwin, axes=([0, 2, 3], [0, 2, 3]))
        return gx, gk

    return _record("conv2d", out, (x, kernel), backward, forward)


def _scatter_windows(contrib, canvas, stride):
    # contrib: (N, C, H, W, kh, kw); adds each kh*kw tap into the strided canvas
    _, _, h, w, kh, kw = contrib.shape
    for a in range(kh):
        for b in range(kw):
            canvas[:, :, a : a + (h - 1) * stride + 1 : stride,
                   b : b + (w - 1) * stride + 1 : stride] += contrib[..., a, b]
    return canvas


def _conv2d_input_grad(g, kdata, x_shape, stride, padding):
    # adjoint of conv2d with respect to its input
    n, ci, h, w = x_shape
    contrib = np.tensordot(g, kdata, axes=([1], [0]))  # (N, Ho, Wo, Ci, kh, kw)
    contrib = contrib.transpose(0, 3, 1, 2, 4, 5)
    canvas = np.zeros((n, ci, h + 2 * padding, w + 2 * padding), dtype=g.dtype)
    _scatter_windows(contrib, canvas, stride)
    if padding == 0:
        return canvas
    return np.ascontiguousarray(canvas[:, :, padding : padding + h, padding : padding + w])


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

    def forward(xdata, kdata):
        contrib = np.tensordot(xdata, kdata, axes=([1], [0]))  # (N, H, W, Co, kh, kw)
        contrib = contrib.transpose(0, 3, 1, 2, 4, 5)
        canvas = np.zeros(
            (n, co, (h - 1) * stride + kh + output_padding,
             (w - 1) * stride + kw + output_padding),
            dtype=xdata.dtype,
        )
        _scatter_windows(contrib, canvas, stride)
        return np.ascontiguousarray(canvas[:, :, padding : padding + th, padding : padding + tw])

    out = Tensor(forward(x.data, kernel.data))

    def backward(g):
        # re-embed the gradient into canvas coordinates, then gather windows
        canvas = np.zeros(
            (n, co, (h - 1) * stride + kh + output_padding,
             (w - 1) * stride + kw + output_padding),
            dtype=g.dtype,
        )
        canvas[:, :, padding : padding + th, padding : padding + tw] = g
        win = sliding_window_view(canvas, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
        gx = None
        if x.requires_grad:
            gx = np.tensordot(win, kernel.data, axes=([1, 4, 5], [1, 2, 3]))
            gx = np.ascontiguousarray(gx.transpose(0, 3, 1, 2))
        gk = None
        if kernel.requires_grad:
            gk = np.tensordot(x.data, win, axes=([0, 2, 3], [0, 2, 3]))
        return gx, gk

    return _record("conv2d_transpose", out, (x, kernel), backward, forward)
