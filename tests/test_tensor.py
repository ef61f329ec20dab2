"""Tensor engine contracts: forward semantics against brute-force oracles,
adjointness, and analytic gradients against central finite differences."""

import inspect
import math
import zlib

import numpy as np
import pytest

from maecodec import tensor as T
from maecodec.exceptions import ContractViolation, NumericDomainError
from maecodec.network import CodecConfig, TradeoffSet, parameter_table

import reference_conv
from conftest import inner, tensor64
from test_training import full_loss_program

# every public function of tensor.py
PRIMITIVES = sorted(name for name, fn in vars(T).items()
                    if inspect.isfunction(fn) and fn.__module__ == T.__name__
                    and not name.startswith("_"))


def conv2d_loops(x, k, stride, pad):
    """Six-nested-loop cross-correlation, the independent reference."""
    n, ci, h, w = x.shape
    co, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((n, co, ho, wo))
    for nn in range(n):
        for o in range(co):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for c in range(ci):
                        for a in range(kh):
                            for b in range(kw):
                                acc += xp[nn, c, i * stride + a, j * stride + b] * k[o, c, a, b]
                    out[nn, o, i, j] = acc
    return out


class TestConv2d:
    def test_identity_kernel(self):
        x = T.Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        k = T.Tensor(np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(T.conv2d(x, k, 1, 0).data, x.data)

    def test_shape_formula(self, rng):
        x = T.Tensor(rng.normal(size=(1, 3, 64, 64)))
        k = T.Tensor(rng.normal(size=(192, 3, 9, 9)))
        assert T.conv2d(x, k, 4, 4).shape == (1, 192, 16, 16)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (3, 2)])
    def test_matches_loop_reference(self, rng, stride, pad):
        x = rng.normal(size=(1, 2, 5, 5))
        k = rng.normal(size=(3, 2, 3, 3))
        got = T.conv2d(T.Tensor(x), T.Tensor(k), stride, pad).data
        ref = conv2d_loops(x, k, stride, pad)
        np.testing.assert_allclose(got, ref, rtol=1e-6)

    def test_channel_mismatch_names_dimensions(self, rng):
        x = T.Tensor(rng.normal(size=(1, 2, 5, 5)))
        k = T.Tensor(rng.normal(size=(3, 4, 3, 3)))
        with pytest.raises(ContractViolation, match="2.*4"):
            T.conv2d(x, k, 1, 0)

    def test_kernel_too_large(self, rng):
        with pytest.raises(ContractViolation):
            T.conv2d(T.Tensor(rng.normal(size=(1, 1, 3, 3))),
                     T.Tensor(rng.normal(size=(1, 1, 5, 5))), 1, 0)


class TestConvTranspose:
    def test_identity(self):
        x = T.Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        k = T.Tensor(np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(T.conv2d_transpose(x, k, 1, 0).data, x.data)

    def test_declared_output_shape(self, rng):
        x = T.Tensor(rng.normal(size=(1, 192, 16, 16)))
        k = T.Tensor(rng.normal(size=(192, 192, 5, 5)))
        assert T.conv2d_transpose(x, k, 2, 2).shape == (1, 192, 32, 32)

    def test_adjoint_of_conv2d(self, rng):
        # <conv(x, k), y> == <x, conv_transpose-ish gradient of y> via the tape
        x = tensor64(rng, (2, 3, 9, 9))
        k = tensor64(rng, (4, 3, 3, 3), requires_grad=False)
        y = T.Tensor(rng.normal(size=(2, 4, 5, 5)))
        with T.GradientTape() as tape:
            out = T.reduce_sum(T.mul(T.conv2d(x, k, 2, 1), y))
        gx = tape.backward(out)[x]
        lhs = inner(T.conv2d(x, k, 2, 1).data, y.data)
        rhs = inner(x.data, gx)
        assert abs(lhs - rhs) / abs(lhs) < 1e-6

    def test_transpose_is_input_gradient_as_forward_map(self, rng):
        # forward conv2d_transpose(y) must equal d<conv(x), y>/dx
        k = tensor64(rng, (4, 3, 3, 3), requires_grad=False)
        x = tensor64(rng, (1, 3, 8, 8))
        y = T.Tensor(rng.normal(size=(1, 4, 4, 4)))
        with T.GradientTape() as tape:
            out = T.reduce_sum(T.mul(T.conv2d(x, k, 2, 1), y))
        gx = tape.backward(out)[x]
        fwd = T.conv2d_transpose(y, k, 2, 1).data
        np.testing.assert_allclose(fwd, gx, rtol=1e-6, atol=1e-12)

    def test_backward_runs_private_kernels(self, rng, monkeypatch):
        # each direction's input gradient is the other's array kernel, with
        # no validation, tape work or traced call of the public primitive
        x = tensor64(rng, (1, 3, 9, 10))
        k = tensor64(rng, (4, 3, 3, 3))
        kt = tensor64(rng, (4, 2, 3, 3))
        with T.GradientTape() as tape:
            loss = T.reduce_sum(T.square(T.conv2d_transpose(T.conv2d(x, k, 2, 1), kt, 2, 1)))
        for name in ("conv2d", "conv2d_transpose"):
            monkeypatch.setattr(T, name, None)
        grads = tape.backward(loss)
        assert all(np.abs(grads[t]).sum() > 0 for t in (x, k, kt))


def _network_stage_cases():
    # (direction, batch, C_in, C_out, H, W, K, stride, pad)
    # for the analysis stages and their transposed synthesis stages at the
    # desk and benchmark shapes; batch 1 and 8 at 96^2 and 48^2 reach both
    # OpenBLAS's small-matrix kernels and its blocked GEMM
    cases = []
    for n, side in ((1, 96), (2, 96), (8, 48), (1, 93)):
        h, w = side, side + 6 * (side % 2)  # the odd image is 93 x 99
        cases += [("conv", n, 3, 32, h, w, 9, 4, 4),
                  ("conv", n, 32, 32, -(-h // 4), -(-w // 4), 5, 2, 2),
                  ("conv", n, 32, 32, -(-h // 8), -(-w // 8), 5, 2, 2),
                  ("convT", n, 32, 32, -(-h // 16), -(-w // 16), 5, 2, 2),
                  ("convT", n, 32, 32, -(-h // 8), -(-w // 8), 5, 2, 2),
                  ("convT", n, 32, 3, -(-h // 4), -(-w // 4), 9, 4, 4)]
    return cases


CONV_CASES = _network_stage_cases() + [
    # odd sides, both directions
    ("conv", 2, 3, 32, 37, 45, 9, 4, 4),
    ("conv", 1, 32, 32, 11, 13, 5, 2, 2),
    ("conv", 1, 32, 3, 13, 11, 5, 2, 2),
    ("convT", 2, 32, 32, 5, 7, 5, 2, 2),
    # stride 1 with padding 0, and 1x1 kernels as in GDN
    ("conv", 2, 4, 5, 7, 9, 3, 1, 0),
    ("convT", 2, 4, 5, 7, 9, 3, 1, 0),
    ("conv", 1, 32, 32, 1, 2, 1, 1, 0),
    ("conv", 1, 32, 32, 6, 7, 1, 1, 0),
    ("conv", 2, 32, 32, 12, 12, 1, 1, 0),
    ("conv", 1, 16, 16, 7, 7, 1, 2, 0),
    ("convT", 1, 32, 32, 6, 7, 1, 1, 0),
    # 2x2 windows at stride 2 do not overlap either; they scatter like any
    # other window
    ("conv", 2, 8, 6, 8, 10, 2, 2, 0),
    ("conv", 1, 8, 6, 7, 9, 2, 2, 1),
    ("convT", 2, 6, 8, 4, 5, 2, 2, 0),
    ("conv", 1, 8, 6, 6, 8, 2, 2, 1),
    # conv2d's input gradient runs the transposed kernel with every residue
    # (H + 2*pad - K) % stride, and conv2d_transpose itself with stride - 1
    ("conv", 2, 32, 32, 9, 11, 5, 2, 2),
    ("convT", 1, 32, 32, 5, 6, 5, 2, 2),
    ("conv", 2, 3, 32, 17, 21, 9, 4, 4),
    ("conv", 2, 3, 32, 18, 22, 9, 4, 4),
    ("conv", 1, 3, 32, 19, 23, 9, 4, 4),
    ("convT", 1, 32, 3, 5, 6, 9, 4, 4),
    # past tensor._SMALL_SCATTER the transposed kernel scatters by stride
    # phase: two images, a different residue on each axis, padding 0 and
    # padding wider than the stride, 5x5/2 and 9x9/4
    ("conv", 2, 32, 32, 16, 17, 5, 2, 2),
    ("conv", 2, 32, 32, 19, 18, 5, 2, 0),
    ("conv", 2, 32, 32, 15, 16, 5, 2, 3),
    ("convT", 2, 32, 32, 7, 8, 5, 2, 0),
    ("convT", 2, 32, 32, 7, 8, 5, 2, 3),
    ("conv", 2, 3, 32, 47, 50, 9, 4, 4),
    ("conv", 2, 3, 32, 56, 55, 9, 4, 0),
    ("conv", 2, 3, 32, 45, 44, 9, 4, 6),
    ("convT", 2, 32, 3, 12, 13, 9, 4, 0),
    ("convT", 2, 32, 3, 12, 13, 9, 4, 6),
    # the paper's 192 channels, latent 1^2, 8^2 and 16^2
    ("conv", 1, 192, 192, 2, 2, 5, 2, 2),
    ("conv", 1, 192, 192, 16, 16, 5, 2, 2),
    ("convT", 1, 192, 192, 1, 1, 5, 2, 2),
    ("convT", 1, 192, 192, 8, 8, 5, 2, 2),
    ("convT", 2, 192, 192, 16, 16, 5, 2, 2),
    # the grad-check model's stages: 3 channels, 16^2 -> 4^2 -> 2^2 -> 1^2 and back
    ("conv", 1, 3, 3, 16, 16, 9, 4, 4),
    ("conv", 1, 3, 3, 4, 4, 5, 2, 2),
    ("conv", 1, 3, 3, 2, 2, 5, 2, 2),
    ("convT", 1, 3, 3, 1, 1, 5, 2, 2),
    ("convT", 1, 3, 3, 2, 2, 5, 2, 2),
    ("convT", 1, 3, 3, 4, 4, 9, 4, 4),
    # a window as wide as its input: the strided view is already contiguous
    ("conv", 1, 3, 4, 5, 5, 5, 1, 0),
    ("conv", 1, 3, 32, 9, 9, 9, 4, 0),
    # an input that needs no gradient: the transposed kernel's gradient
    # gathers the windows of the output's gradient itself, for a small
    # product (the grad-check model's last stage) and a large one
    ("convT-const-input", 1, 3, 3, 4, 4, 9, 4, 4),
    ("convT-const-input", 8, 32, 32, 12, 12, 5, 2, 2),
]

# the transposed kernel scatters (16*4*4) x (ho*wo) contribution elements:
# 15x17, 16x16 and 16x17 positions sit just below, at and just above
# tensor._SMALL_SCATTER, in the input gradient of conv2d and the forward map
# of conv2d_transpose
SCATTER_POSITIONS = ((15, 17), (16, 16), (16, 17))
CONV_CASES += [("conv", 1, 16, 8, 2 * ho, 2 * wo, 4, 2, 1)
               for ho, wo in SCATTER_POSITIONS]
CONV_CASES += [("convT", 1, 8, 16, h, w, 4, 2, 1) for h, w in SCATTER_POSITIONS]

# (c, k, stride, n, h, w) scatters of -0.0 contributions
NEGATIVE_ZERO_CASES = [(4, 1, 1, 2, 5, 6), (4, 2, 2, 2, 5, 6), (4, 1, 2, 1, 5, 6),
                       (4, 5, 2, 1, 5, 6), (16, 4, 2, 1, 17, 17), (3, 9, 4, 2, 12, 13)]


def _conv_and_grads(module, case, dtype):
    kind, n, ci, co, h, w, k, stride, pad = case
    rng = np.random.default_rng(zlib.crc32(repr(case).encode()))
    x = rng.standard_normal((n, ci, h, w)).astype(dtype)
    kshape = (co, ci, k, k) if kind == "conv" else (ci, co, k, k)
    kernel = (0.1 * rng.standard_normal(kshape)).astype(dtype)
    xt = T.Tensor(x, requires_grad=kind != "convT-const-input")
    kt = T.Tensor(kernel, requires_grad=True)
    with T.GradientTape() as tape:
        conv = module.conv2d if kind == "conv" else module.conv2d_transpose
        y = conv(xt, kt, stride, pad)
        weights = np.random.default_rng(7).standard_normal(y.shape).astype(dtype)
        loss = T.reduce_sum(T.mul(y, T.Tensor(weights)))
    grads = tape.backward(loss)
    got = {"output": y.data, "input grad": grads.get(xt), "kernel grad": grads[kt]}
    return {name: a for name, a in got.items() if a is not None}


def _assert_float32_close(got, ref):
    # the GEMMs may sum in another order than the reference's np.tensordot:
    # within 64 float32 epsilons of the largest entry (9 at most over
    # CONV_CASES with OpenBLAS 0.3.31)
    tol = 64 * np.finfo(np.float32).eps
    assert got.keys() == ref.keys()
    for name, a, b in zip(got, got.values(), ref.values()):
        assert a.dtype == b.dtype == np.float32 and a.flags.c_contiguous, name
        np.testing.assert_allclose(a, b, rtol=tol, atol=tol * np.abs(b).max(), err_msg=name)


class TestConvAgainstReference:
    """The im2col/col2im convolutions against the sliding-window ones in
    tests/reference_conv.py, for the output, the input gradient and the
    kernel gradient: within a few float32 rounding steps, and within
    1e-12 in float64.  The scatters alone keep the reference's bits."""

    @pytest.mark.parametrize("case", CONV_CASES, ids=lambda c: "-".join(map(str, c)))
    def test_float32_matches(self, case):
        _assert_float32_close(_conv_and_grads(T, case, np.float32),
                              _conv_and_grads(reference_conv, case, np.float32))

    @pytest.mark.parametrize("case", CONV_CASES, ids=lambda c: "-".join(map(str, c)))
    def test_float64_matches(self, case):
        got = _conv_and_grads(T, case, np.float64)
        ref = _conv_and_grads(reference_conv, case, np.float64)
        assert got.keys() == ref.keys()
        for name, a, b in zip(got, got.values(), ref.values()):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max(),
                                       err_msg=name)

    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("kind", ["conv", "convT"])
    def test_one_by_one_windows_skip_the_scatter(self, monkeypatch, kind, pad):
        # 1x1 windows at stride 1, as in GDN: the transposed kernel (conv's
        # input gradient, convT's forward map) returns its GEMM product
        # cropped by the padding, and no scatter runs
        case = (kind, 2, 32, 32, 6, 7, 1, 1, pad)
        ref = _conv_and_grads(reference_conv, case, np.float32)
        for name in ("_col2im", "_phase_scatter"):
            monkeypatch.setattr(T, name, None)
        _assert_float32_close(_conv_and_grads(T, case, np.float32), ref)

    @pytest.mark.parametrize("c,k,stride,n,h,w", NEGATIVE_ZERO_CASES)
    def test_negative_zero_contributions(self, c, k, stride, n, h, w):
        # the GEMMs return +0.0 for a zero input times negative weights, so
        # -0.0 contributions are fed to the scatter directly: each adds to
        # the canvas's +0.0, in every path, as the reference's taps do; the
        # phase path takes its taps tap-major, and its zero rows and columns
        # past h and w are -0.0 as well
        rng = np.random.default_rng(c * 100 + k)
        contrib = rng.standard_normal((c * k * k, n * h * w)).astype(np.float32)
        contrib[:, ::2] = -0.0
        side = (h - 1) * stride + k, (w - 1) * stride + k
        if T._phase_major(contrib.size):
            rows, v = (-(-s // stride) for s in side)
            wide = np.full((k, k, c, n, rows, v), -0.0, np.float32)
            wide[..., :h, :w] = contrib.reshape(c, k, k, n, h, w).transpose(1, 2, 0, 3, 4, 5)
            got = T._phase_scatter(wide, np.empty((n, c) + side, np.float32),
                                   k, k, stride, 0)
        else:
            got = T._col2im(contrib, np.zeros((n, c) + side, np.float32), k, k, stride, h, w)
        ref = reference_conv._scatter_windows(
            contrib.reshape(c, k, k, n, h, w).transpose(3, 0, 4, 5, 1, 2),
            np.zeros((n, c) + side, np.float32), stride)
        assert got.tobytes() == ref.tobytes()
        assert not np.signbit(got[got == 0]).any()

    def test_kept_scatter_index_is_read_only(self):
        index = T._scatter_index(4, 5, 5, 2, 3, 3, 1, 11, 11)
        assert index.shape == (4 * 5 * 5 * 3 * 3,) and not index.flags.writeable
        with pytest.raises(ValueError):
            index[0] = 0

    def test_alternating_shapes_match_a_cleared_cache(self):
        # two scatter shapes in turn, each built once and then reused,
        # give the bits of a scatter whose index is built afresh
        cases = [("convT", 1, 8, 16, 5, 6, 4, 2, 1), ("convT", 2, 8, 16, 3, 4, 5, 2, 2)]
        T._scatter_index.cache_clear()
        kept = [_conv_and_grads(T, case, np.float32) for case in cases * 3]
        assert T._scatter_index.cache_info().hits > 0
        T._scatter_index.cache_clear()
        for case, got in zip(cases * 3, kept):
            fresh = _conv_and_grads(T, case, np.float32)
            T._scatter_index.cache_clear()
            for a, b in zip(got.values(), fresh.values()):
                assert a.tobytes() == b.tobytes()

    def test_scatter_cases_straddle_the_threshold(self):
        below, at, above = (16 * 4 * 4 * h * w for h, w in SCATTER_POSITIONS)
        assert below < at == T._SMALL_SCATTER < above

    def test_train_step_shapes_reach_the_phase_path(self):
        # the benchmark's train step, 8 crops of 48^2, scatters by phase in
        # both synthesis stages here and in the middle analysis stage's
        # input gradient
        for case in [("convT", 8, 32, 32, 6, 6, 5, 2, 2), ("convT", 8, 32, 3, 12, 12, 9, 4, 4),
                     ("conv", 8, 32, 32, 12, 12, 5, 2, 2)]:
            kind, n, ci, co, h, w, k, stride, pad = case
            if kind == "conv":  # the gradient of a (ho, wo) output, back to ci channels
                co, h, w = ci, (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
            assert case in CONV_CASES and T._phase_major(co * k * k * n * h * w)

    def test_negative_zero_cases_reach_every_path(self):
        # add.at and the phase path; 1x1 windows at stride 1 skip the
        # scatter (test_one_by_one_windows_skip_the_scatter)
        paths = {"phase" if T._phase_major(c * k * k * n * h * w) else "add.at"
                 for c, k, stride, n, h, w in NEGATIVE_ZERO_CASES}
        assert paths == {"add.at", "phase"}

    @pytest.mark.parametrize("case", CONV_CASES, ids=lambda c: "-".join(map(str, c)))
    def test_im2col_never_shares_memory_with_its_input(self, case):
        # the window buffer is kept for backward; only the 1x1 stride-1
        # gather is documented as a view of its input
        kind, n, ci, co, h, w, k, stride, pad = case
        if kind == "conv":
            x = np.zeros((n, ci, h, w))
        else:  # the backward pass gathers from the output's gradient
            x = np.zeros((n, co, h * stride - 2 * pad + k - 1, w * stride - 2 * pad + k - 1))
        cols = T._im2col(x, k, k, stride, pad)
        if k == stride == 1:
            assert np.shares_memory(cols, x)
        else:
            assert cols.flags.c_contiguous and not np.shares_memory(cols, x)

    def test_im2col_of_a_strided_view(self, rng):
        # a gradient reaches the unpadded gather as any view: its windows
        # are those of its values
        base = rng.standard_normal((12, 2, 16, 17)).astype(np.float32)
        for view in (base.transpose(1, 0, 2, 3), base[::3, :, 1:, ::2]):
            got = T._im2col(view, 5, 5, 2, 0)
            want = T._im2col(np.ascontiguousarray(view), 5, 5, 2, 0)
            assert got.ndim == 6
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestAffine:
    def test_identity(self, rng):
        x = rng.normal(size=(3, 4))
        y = T.affine(T.Tensor(x), T.Tensor(np.eye(4)), T.Tensor(np.zeros(4)))
        np.testing.assert_array_equal(y.data, x)

    def test_scalar_case(self):
        y = T.affine(T.Tensor([[1.0]]), T.Tensor([[2.0]]), T.Tensor([3.0]))
        assert y.item() == 5.0

    def test_matches_triple_loop(self, rng):
        x = rng.normal(size=(2, 3))
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=4)
        ref = np.zeros((2, 4))
        for i in range(2):
            for j in range(4):
                acc = b[j]
                for m in range(3):
                    acc += x[i, m] * w[m, j]
                ref[i, j] = acc
        got = T.affine(T.Tensor(x), T.Tensor(w), T.Tensor(b)).data
        np.testing.assert_allclose(got, ref, rtol=1e-7)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ContractViolation):
            T.affine(T.Tensor(rng.normal(size=(2, 3))),
                     T.Tensor(rng.normal(size=(4, 4))),
                     T.Tensor(np.zeros(4)))


class TestElementwise:
    def test_relu(self):
        out = T.relu(T.Tensor([-1.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_exp_log2(self):
        assert T.exp(T.Tensor([0.0])).data[0] == 1.0
        assert T.log2(T.Tensor([8.0])).data[0] == 3.0

    def test_binary_scalar_broadcast(self):
        x = T.Tensor([1.0, 2.0])
        np.testing.assert_array_equal(T.add(x, 1.0).data, [2.0, 3.0])
        np.testing.assert_array_equal(T.mul(x, 2.0).data, [2.0, 4.0])

    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div])
    @pytest.mark.parametrize("shapes", [
        ((2,), (3,)),
        ((3,), (1, 3, 1, 1)),      # the ndim differs
        ((2, 1), (1, 3)),          # broadcast only to a third shape
        ((2, 3, 4), (2, 2, 4)),
    ], ids=str)
    def test_binary_shape_mismatch(self, op, shapes):
        for a, b in (shapes, shapes[::-1]):
            with pytest.raises(ContractViolation, match="broadcasts"):
                op(T.Tensor(np.ones(a)), T.Tensor(np.ones(b)))

    def test_binary_broadcast(self):
        x = T.Tensor(np.arange(1.0, 25.0).reshape(2, 3, 2, 2))
        v = T.Tensor(np.array([1.0, 2.0, 4.0]).reshape(1, 3, 1, 1))
        for op, ref in ((T.add, np.add), (T.sub, np.subtract),
                        (T.mul, np.multiply), (T.div, np.divide)):
            for a, b in ((x, v), (v, x)):
                out = op(a, b)
                assert out.shape == (2, 3, 2, 2)
                assert out.data.tobytes() == ref(a.data, b.data).tobytes()

    # x over +-1e4, densely where the float32 and float64 tails underflow
    SIGMOID_GRID = np.unique(np.concatenate((np.linspace(-1e4, 1e4, 20001),
                                             np.linspace(-800.0, 800.0, 16001),
                                             np.linspace(-5.0, 5.0, 1001))))

    @staticmethod
    def _sigmoid_reference(x):
        return np.array([1.0 / (1.0 + math.exp(-v)) if v >= 0 else math.exp(v) / (1.0 + math.exp(v))
                         for v in x.astype(np.float64).tolist()])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_and_softplus_stay_finite_and_keep_their_dtype(self, dtype):
        x = self.SIGMOID_GRID.astype(dtype)
        # underflow of a far tail to a subnormal or 0 is the right answer;
        # no overflow, division by zero or invalid value may happen
        with np.errstate(all="raise", under="ignore"):
            s = T.sigmoid(T.Tensor(x)).data
            sp = T.softplus(T.Tensor(x)).data
        assert s.dtype == sp.dtype == dtype
        assert s.min() >= 0.0 and s.max() <= 1.0
        assert np.all(np.diff(s) >= 0)
        assert np.all(np.isfinite(sp)) and sp.min() >= 0.0 and np.all(np.diff(sp) >= 0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_relative_error_within_a_few_eps_tails_included(self, dtype):
        # the density's tails feed choose_support's 1e-6 mass check, so the
        # tails must keep their relative precision, not only the centre
        x = self.SIGMOID_GRID.astype(dtype)
        ref = self._sigmoid_reference(x)
        with np.errstate(under="ignore"):
            got = T.sigmoid(T.Tensor(x)).data.astype(np.float64)
        info = np.finfo(dtype)
        normal = ref >= info.tiny
        assert not normal.all() and normal.sum() > 10000
        rel = np.abs(got[normal] - ref[normal]) / ref[normal]
        assert rel.max() <= 4 * info.eps
        # below the normal range only the subnormal spacing is left
        assert np.abs(got[~normal] - ref[~normal]).max() <= 2 * info.smallest_subnormal

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softplus_gradient_is_the_sigmoid(self, dtype):
        x = T.Tensor(self.SIGMOID_GRID.astype(dtype), requires_grad=True)
        with np.errstate(under="ignore"):
            with T.GradientTape() as tape:
                loss = T.reduce_sum(T.softplus(x))
            grad = tape.backward(loss)[x]
            s = T.sigmoid(x).data
        assert grad.dtype == dtype
        assert grad.tobytes() == s.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_domain_errors_identify_element(self, dtype):
        with pytest.raises(NumericDomainError, match=r"\(1,\)"):
            T.sqrt(T.Tensor(np.array([1.0, -1.0], dtype)))
        with pytest.raises(NumericDomainError, match=r"\(0,\)"):
            T.log2(T.Tensor(np.array([0.0, 1.0], dtype)))
        with pytest.raises(NumericDomainError, match="nonzero"):
            T.div(T.Tensor(np.array([1.0], dtype)), T.Tensor(np.array([0.0], dtype)))
        # a NaN, a zero, a negative zero and a negative entry, each named
        for op in (T.sqrt, T.log2):
            for bad in (np.nan, 0.0, -0.0, -2.0):
                v = np.full((2, 3), 4.0, dtype)
                v[1, 2] = bad
                with pytest.raises(NumericDomainError,
                                   match=r"strictly positive inputs; violated at element \(1, 2\)"):
                    op(T.Tensor(v))
        # a NaN divisor is not zero; a zero one is named
        out = T.div(T.Tensor(np.ones(3, dtype)), T.Tensor(np.array([2.0, np.nan, 4.0], dtype)))
        assert out.dtype == dtype and np.isnan(out.data[1]) and out.data[2] == 0.25
        with pytest.raises(NumericDomainError,
                           match=r"nonzero divisor; violated at element \(2,\)"):
            T.div(T.Tensor(np.ones(3, dtype)), T.Tensor(np.array([np.nan, 1.0, 0.0], dtype)))
        # an empty input has nothing to check
        empty = T.Tensor(np.empty(0, dtype))
        for out in (T.sqrt(empty), T.log2(empty), T.div(empty, empty)):
            assert out.shape == (0,) and out.dtype == dtype


class TestReduce:
    def test_mean(self):
        assert T.reduce_mean(T.Tensor([1.0, 2.0, 3.0])).item() == 2.0

    def test_sum_of_zeros(self):
        assert T.reduce_sum(T.Tensor(np.zeros((3, 4)))).item() == 0.0

    def test_matches_sequential_accumulation(self, rng):
        x = rng.normal(size=(3, 4, 5))
        acc = 0.0
        for v in x.reshape(-1):
            acc += v
        got = T.reduce_sum(T.Tensor(x)).item()
        assert abs(got - acc) / abs(acc) < 1e-6

    def test_sums_as_numpy_over_every_named_axis(self, rng):
        x = rng.normal(size=(2, 3, 4)).astype(np.float32)
        assert T.reduce_sum(T.Tensor(x)).data.tobytes() == x.sum(axis=(0, 1, 2)).tobytes()
        assert T.reduce_mean(T.Tensor(x)).data.tobytes() == x.mean(axis=(0, 1, 2)).tobytes()


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = tensor64(rng, (3, 4))
        with T.GradientTape() as tape:
            loss = T.reduce_sum(x)
        g = tape.backward(loss)[x]
        np.testing.assert_array_equal(g, np.ones((3, 4)))

    def test_quadratic(self):
        x = T.Tensor([3.0], requires_grad=True)
        with T.GradientTape() as tape:
            loss = T.reduce_sum(T.mul(x, x))
        np.testing.assert_array_equal(tape.backward(loss)[x], [6.0])

    def test_unused_tensor_gets_exact_zero(self, rng):
        x = tensor64(rng, (2, 2))
        unused = tensor64(rng, (2, 2))
        with T.GradientTape() as tape:
            _ = T.mul(unused, 2.0)  # recorded but not part of the loss
            loss = T.reduce_sum(x)
        grads = tape.backward(loss, params=[x, unused])
        np.testing.assert_array_equal(grads[unused], np.zeros((2, 2)))
        assert grads[unused].dtype == unused.data.dtype

    def test_only_leaves_are_returned(self):
        # y is made on the tape: it gets no entry, rather than a zero that
        # reads as dz/dy although dz/dy is [1, 1]
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with T.GradientTape() as tape:
            y = T.mul(x, x)
            z = T.reduce_sum(y)
        grads = tape.backward(z)
        assert list(grads) == [x]
        np.testing.assert_array_equal(grads[x], [2.0, 4.0])

    def test_params_walk_only_the_nodes_that_depend_on_them(self):
        # one modulation net of the full objective: exactly its tensors come
        # back, with the bits of the backward over every leaf, and the
        # first encoder conv, upstream of the net, is never differentiated
        fn, params = full_loss_program(0)
        names = [name for name, _, _ in parameter_table(
            CodecConfig(channels=3, mod_hidden=3), TradeoffSet((0.25, 1.0)), "mae")]
        net = [p for name, p in zip(names, params) if name.startswith("modulate1.")]
        conv0 = params[names.index("encoder.conv0.kernel")]
        assert len(net) == 4

        def recorded():
            with T.GradientTape() as tape:
                loss = fn(*params)
            node = next(n for n in tape._nodes if n.name == "conv2d" and n.inputs[1] is conv0)
            return tape, loss, node

        tape, loss, _ = recorded()
        every = tape.backward(loss)
        assert all(p in every for p in net)
        tape, loss, node = recorded()

        def refuse(g):
            raise AssertionError("walked a node that does not depend on params")

        node.backward = refuse
        grads = tape.backward(loss, params=net)
        assert list(grads) == net
        for p in net:
            assert grads[p].dtype == p.dtype and grads[p].tobytes() == every[p].tobytes()
            assert np.abs(grads[p]).sum() > 0

    def test_params_made_on_the_tape_rejected(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with T.GradientTape() as tape:
            y = T.mul(x, x)
            z = T.reduce_sum(y)
        with pytest.raises(ContractViolation, match="takes leaves"):
            tape.backward(z, params=[x, y])

    def test_non_scalar_loss_rejected(self, rng):
        x = tensor64(rng, (2, 2))
        with T.GradientTape() as tape:
            y = T.mul(x, x)
        with pytest.raises(ContractViolation):
            tape.backward(y)

    def test_tape_single_use(self, rng):
        x = tensor64(rng, (2,))
        with T.GradientTape() as tape:
            loss = T.reduce_sum(x)
        tape.backward(loss)
        with pytest.raises(RuntimeError):
            tape.backward(loss)

    def test_gradient_accumulates_over_reuse(self, rng):
        x = tensor64(rng, (3,))
        with T.GradientTape() as tape:
            loss = T.reduce_sum(T.add(T.mul(x, 2.0), x))
        np.testing.assert_allclose(tape.backward(loss)[x], 3.0 * np.ones(3))

    def test_determinism_bit_identical(self, rng):
        x = T.Tensor(rng.normal(size=(2, 3, 16, 16)).astype(np.float32), requires_grad=True)
        k = T.Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32), requires_grad=True)

        def run():
            with T.GradientTape() as tape:
                loss = T.reduce_sum(T.square(T.conv2d(x, k, 2, 1)))
            g = tape.backward(loss)
            return loss.item(), g[x].copy(), g[k].copy()

        l1, gx1, gk1 = run()
        l2, gx2, gk2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(gx1, gx2)
        np.testing.assert_array_equal(gk1, gk2)


def primitive_programs(seed):
    """(fn, inputs) pairs of scalar programs that together call every
    primitive, with float64 inputs that require grad."""
    r = np.random.default_rng(seed)
    checks = []
    x = tensor64(r, (1, 2, 6, 6))
    k = tensor64(r, (3, 2, 3, 3), scale=0.5)
    checks.append((lambda a, b: T.reduce_sum(T.square(T.conv2d(a, b, 2, 1))), [x, k]))
    xt = tensor64(r, (1, 2, 4, 4))
    kt = tensor64(r, (2, 3, 3, 3), scale=0.5)
    checks.append((lambda a, b: T.reduce_sum(T.square(T.conv2d_transpose(a, b, 2, 1))), [xt, kt]))
    a = tensor64(r, (3, 4))
    w = tensor64(r, (4, 2))
    b = tensor64(r, (2,))
    checks.append((lambda p, q, s: T.reduce_sum(T.square(T.affine(p, q, s))), [a, w, b]))
    cm_w = tensor64(r, (2, 3, 4))
    cm_h = tensor64(r, (2, 4, 5))
    checks.append((lambda p, q: T.reduce_sum(T.square(T.channel_matmul(p, q))), [cm_w, cm_h]))
    cb = tensor64(r, (2, 3, 1))
    ch = tensor64(r, (2, 3, 5))
    checks.append((lambda p, q: T.reduce_sum(T.square(T.add(p, q))), [ch, cb]))
    checks.append((lambda p, q: T.reduce_sum(T.square(T.tanh_coupling(p, q))), [ch, cb]))
    # a per-channel vector broadcast over an NCHW map, either operand first
    nchw = tensor64(r, (2, 3, 4, 4))
    vec = tensor64(r, (3,))
    vpos3 = T.Tensor(np.abs(r.normal(size=3)) + 1.0, requires_grad=True)
    nchw_pos = T.Tensor(np.abs(r.normal(size=(2, 3, 4, 4))) + 1.0, requires_grad=True)

    def per_channel(op, full_first):
        def program(p, q):
            q4 = T.reshape(q, (1, 3, 1, 1))
            return T.reduce_sum(T.square(op(p, q4) if full_first else op(q4, p)))
        return program

    checks.append((per_channel(T.mul, True), [nchw, vec]))
    checks.append((per_channel(T.add, True), [nchw, vec]))
    checks.append((per_channel(T.sub, False), [nchw, vec]))
    checks.append((per_channel(T.div, True), [nchw, vpos3]))
    checks.append((per_channel(T.div, False), [nchw_pos, vec]))
    # one-element operands, of another ndim and of the same ndim
    one = tensor64(r, (1,))
    one4 = tensor64(r, (1, 1, 1, 1))
    checks.append((lambda p, q: T.reduce_sum(T.square(T.mul(p, q))), [nchw, one]))
    checks.append((lambda p, q: T.reduce_sum(T.square(T.sub(q, p))), [nchw, one4]))
    pos = T.Tensor(np.abs(r.normal(size=(3, 3))) + 0.5, requires_grad=True)
    checks.append((lambda p: T.reduce_sum(T.sqrt(p)), [pos]))
    checks.append((lambda p: T.reduce_sum(T.log2(p)), [pos]))
    any_ = tensor64(r, (3, 3))
    for fn in (T.exp, T.square, T.neg, T.sigmoid, T.softplus):
        checks.append((lambda p, fn=fn: T.reduce_sum(T.square(fn(p))), [any_]))
    # relu checked away from its kink
    off = T.Tensor(r.normal(size=(3, 3)) + np.where(r.normal(size=(3, 3)) > 0, 2.0, -2.0),
                   requires_grad=True)
    checks.append((lambda p: T.reduce_sum(T.square(T.relu(p))), [off]))
    u = tensor64(r, (2, 3))
    v = tensor64(r, (2, 3), scale=0.5)
    vpos = T.Tensor(np.abs(r.normal(size=(2, 3))) + 1.0, requires_grad=True)
    checks.append((lambda p, q: T.reduce_sum(T.square(T.add(p, q))), [u, v]))
    checks.append((lambda p, q: T.reduce_sum(T.square(T.sub(p, q))), [u, v]))
    checks.append((lambda p, q: T.reduce_sum(T.square(T.mul(p, q))), [u, v]))
    checks.append((lambda p, q: T.reduce_sum(T.square(T.div(p, q))), [u, vpos]))
    checks.append((lambda p: T.reduce_sum(T.square(T.reduce_mean(p))), [u]))
    checks.append((lambda p: T.reduce_sum(T.square(T.reshape(p, (6, 1)))), [u]))
    checks.append((lambda p: T.reduce_sum(T.square(T.transpose(p, (1, 0)))), [u]))
    return checks


class TestGradCheck:
    def test_quadratic_is_tight(self, rng):
        x = tensor64(rng, (3, 3))
        err = T.grad_check(lambda t: T.reduce_sum(T.square(t)), [x])
        assert err < 1e-6

    def test_constant_program_is_exact(self, rng):
        x = tensor64(rng, (4,))
        c = T.Tensor(np.ones(1))
        err = T.grad_check(lambda t: T.add(T.reduce_sum(T.mul(t, 0.0)), T.reduce_sum(c)), [x])
        assert err == 0.0

    @staticmethod
    def assert_never_passes(fn, inputs):
        # a program outside grad_check's contract is refused outright or
        # reported with an error that fails the tests' `< 1e-4`
        try:
            err = T.grad_check(fn, inputs)
        except ContractViolation:
            return
        assert not err < 1e-4

    def test_value_read_through_data_never_passes(self, rng):
        # the copy is a constant to the tape, so the analytic gradient
        # sees one factor of t where the value has two
        x = tensor64(rng, (4,))
        self.assert_never_passes(lambda t: T.reduce_sum(T.mul(t, T.Tensor(t.data.copy()))), [x])

    def test_nondeterministic_program_never_passes(self, rng):
        x = tensor64(rng, (4,))
        noise = np.random.default_rng(5)
        self.assert_never_passes(
            lambda t: T.reduce_sum(T.add(T.square(t), T.Tensor(noise.normal(size=4)))), [x])

    def test_nan_error_never_passes(self):
        # a NaN in any coordinate's error is the result, not skipped
        x = T.Tensor(np.array([np.nan, 1.0, 2.0]), requires_grad=True)
        self.assert_never_passes(lambda t: T.reduce_sum(T.square(t)), [x])

    # one coordinate sits exactly one central-difference step (1e-4) above
    # zero, so the minus step of that coordinate is exactly 0: a perturbed
    # evaluation that leaves the domain raises, as a direct call would
    @pytest.mark.parametrize("program", [
        lambda t: T.reduce_sum(T.sqrt(t)),
        lambda t: T.reduce_sum(T.log2(t)),
        lambda t: T.reduce_sum(T.div(T.Tensor(np.ones(3)), t)),
    ], ids=["sqrt", "log2", "div"])
    def test_step_out_of_the_domain_raises(self, program):
        x = T.Tensor(np.array([0.5, 1e-4, 2.0]), requires_grad=True)
        assert np.isfinite(program(x).item())
        with pytest.raises(NumericDomainError):
            T.grad_check(program, [x])

    @pytest.mark.parametrize("seed", range(20))
    def test_every_primitive(self, seed):
        for fn, inputs in primitive_programs(seed):
            assert T.grad_check(fn, inputs) < 1e-4


class TestGradientDtype:
    def test_float32_programs_keep_float32_gradients(self):
        for fn, inputs in primitive_programs(0):
            work = [T.Tensor(t.data.astype(np.float32), requires_grad=True) for t in inputs]
            with T.GradientTape() as tape:
                loss = fn(*work)
            grads = tape.backward(loss)
            assert [grads[t].dtype for t in work] == [np.float32] * len(work)

    def test_leaked_dtype_raises(self):
        # a float64 constant promotes the product, and so x's gradient
        x = T.Tensor(np.ones(3, np.float32), requires_grad=True)
        c = T.Tensor(np.full(3, 2.0))
        with T.GradientTape() as tape:
            loss = T.reduce_sum(T.mul(x, c))
        with pytest.raises(ContractViolation,
                           match="mul returned a float64 gradient for a float32 input"):
            tape.backward(loss)


class TestRecordedForwards:
    """Each tape node records the ndarray kernel that made its output, and
    grad_check replays nodes by calling it.  On the node's own input
    arrays the kernel must return the output again: the same bits, dtype
    and shape, C-contiguous, because grad_check compares a replay with the
    recorded program bit for bit, and a GEMM's sums may depend on how its
    operands are laid out."""

    def test_every_kernel_reproduces_its_node(self, monkeypatch):
        made_by = {}

        def naming(name, primitive):
            def wrapper(*args, **kwargs):
                out = primitive(*args, **kwargs)
                made_by[id(out)] = name
                return out
            return wrapper

        for name in PRIMITIVES:
            monkeypatch.setattr(T, name, naming(name, getattr(T, name)))
        covered = set()
        for fn, inputs in primitive_programs(0) + [full_loss_program(0)]:
            with T.GradientTape() as tape:
                fn(*inputs)
            for node in tape._nodes:
                name = made_by[id(node.out)]
                assert node.name == name
                got = node.forward(*[t.data for t in node.inputs])
                want = node.out.data
                assert (got.dtype, got.shape) == (want.dtype, want.shape), name
                assert got.flags.c_contiguous, name
                assert got.tobytes() == want.tobytes(), name
                covered.add(name)
        assert sorted(covered) == PRIMITIVES
