"""Tensor engine contracts: forward semantics against brute-force oracles,
adjointness, and analytic gradients against central finite differences."""

import inspect
import zlib

import numpy as np
import pytest

from maecodec import tensor as T
from maecodec.exceptions import ContractViolation, NumericDomainError

import reference_conv
from conftest import inner, tensor64
from test_training import full_loss_program

# every public function of tensor.py but the gradient checker
PRIMITIVES = sorted(name for name, fn in vars(T).items()
                    if inspect.isfunction(fn) and fn.__module__ == T.__name__
                    and not name.startswith("_") and name != "grad_check")


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
        assert T.conv2d_transpose(x, k, 2, 2, output_padding=1).shape == (1, 192, 32, 32)
        # default output_padding = stride - 1 gives the same shape
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
        fwd = T.conv2d_transpose(y, k, 2, 1, output_padding=1).data
        np.testing.assert_allclose(fwd, gx, rtol=1e-6, atol=1e-12)

    def test_output_padding_range(self, rng):
        x = T.Tensor(rng.normal(size=(1, 1, 4, 4)))
        k = T.Tensor(rng.normal(size=(1, 1, 3, 3)))
        with pytest.raises(ContractViolation):
            T.conv2d_transpose(x, k, 2, 1, output_padding=2)


def _network_stage_cases():
    # (direction, batch, C_in, C_out, H, W, K, stride, pad, output_padding)
    # for the analysis stages and their transposed synthesis stages at the
    # desk and benchmark shapes; batch 1 and 8 at 96^2 and 48^2 reach both
    # the small-product and the blocked GEMM path
    cases = []
    for n, side in ((1, 96), (2, 96), (8, 48), (1, 93)):
        h, w = side, side + 6 * (side % 2)  # the odd image is 93 x 99
        cases += [("conv", n, 3, 32, h, w, 9, 4, 4, None),
                  ("conv", n, 32, 32, -(-h // 4), -(-w // 4), 5, 2, 2, None),
                  ("conv", n, 32, 32, -(-h // 8), -(-w // 8), 5, 2, 2, None),
                  ("convT", n, 32, 32, -(-h // 16), -(-w // 16), 5, 2, 2, 1),
                  ("convT", n, 32, 32, -(-h // 8), -(-w // 8), 5, 2, 2, 1),
                  ("convT", n, 32, 3, -(-h // 4), -(-w // 4), 9, 4, 4, 3)]
    return cases


CONV_CASES = _network_stage_cases() + [
    # odd sides, both directions
    ("conv", 2, 3, 32, 37, 45, 9, 4, 4, None),
    ("conv", 1, 32, 32, 11, 13, 5, 2, 2, None),
    ("conv", 1, 32, 3, 13, 11, 5, 2, 2, None),
    ("convT", 2, 32, 32, 5, 7, 5, 2, 2, 1),
    # stride 1 with padding 0, and 1x1 kernels as in GDN
    ("conv", 2, 4, 5, 7, 9, 3, 1, 0, None),
    ("convT", 2, 4, 5, 7, 9, 3, 1, 0, 0),
    ("conv", 1, 32, 32, 1, 2, 1, 1, 0, None),
    ("conv", 1, 32, 32, 6, 7, 1, 1, 0, None),
    ("conv", 2, 32, 32, 12, 12, 1, 1, 0, None),
    ("conv", 1, 16, 16, 7, 7, 1, 2, 0, None),
    ("convT", 1, 32, 32, 6, 7, 1, 1, 0, 0),
    # 2x2 windows at stride 2 do not overlap either: the tap loop at any size
    ("conv", 2, 8, 6, 8, 10, 2, 2, 0, None),
    ("conv", 1, 8, 6, 7, 9, 2, 2, 1, None),
    ("convT", 2, 6, 8, 4, 5, 2, 2, 0, 1),
    ("convT", 1, 6, 8, 4, 5, 2, 2, 1, 0),
    # every output_padding in [0, stride)
    ("convT", 2, 32, 32, 5, 6, 5, 2, 2, 0),
    ("convT", 1, 32, 32, 5, 6, 5, 2, 2, 1),
    ("convT", 2, 32, 3, 5, 6, 9, 4, 4, 0),
    ("convT", 2, 32, 3, 5, 6, 9, 4, 4, 1),
    ("convT", 1, 32, 3, 5, 6, 9, 4, 4, 2),
    ("convT", 1, 32, 3, 5, 6, 9, 4, 4, 3),
    # the paper's 192 channels, latent 1^2, 8^2 and 16^2
    ("conv", 1, 192, 192, 2, 2, 5, 2, 2, None),
    ("conv", 1, 192, 192, 16, 16, 5, 2, 2, None),
    ("convT", 1, 192, 192, 1, 1, 5, 2, 2, 1),
    ("convT", 1, 192, 192, 8, 8, 5, 2, 2, 1),
    ("convT", 2, 192, 192, 16, 16, 5, 2, 2, 1),
    # the grad-check model's stages: 3 channels, 16^2 -> 4^2 -> 2^2 -> 1^2 and back
    ("conv", 1, 3, 3, 16, 16, 9, 4, 4, None),
    ("conv", 1, 3, 3, 4, 4, 5, 2, 2, None),
    ("conv", 1, 3, 3, 2, 2, 5, 2, 2, None),
    ("convT", 1, 3, 3, 1, 1, 5, 2, 2, 1),
    ("convT", 1, 3, 3, 2, 2, 5, 2, 2, 1),
    ("convT", 1, 3, 3, 4, 4, 9, 4, 4, 3),
    # a window as wide as its input: the strided view is already contiguous
    ("conv", 1, 3, 4, 5, 5, 5, 1, 0, None),
    ("conv", 1, 3, 32, 9, 9, 9, 4, 0, None),
]

# col2im scatters (16*4*4) x (ho*wo) contribution elements: 15x17, 16x16 and
# 16x17 positions sit just below, at and just above tensor._SMALL_SCATTER,
# in the input gradient of conv2d and the forward map of conv2d_transpose
SCATTER_POSITIONS = ((15, 17), (16, 16), (16, 17))
CONV_CASES += [("conv", 1, 16, 8, 2 * ho, 2 * wo, 4, 2, 1, None)
               for ho, wo in SCATTER_POSITIONS]
CONV_CASES += [("convT", 1, 8, 16, h, w, 4, 2, 1, 1) for h, w in SCATTER_POSITIONS]


def _conv_and_grads(module, case, dtype):
    kind, n, ci, co, h, w, k, stride, pad, out_pad = case
    rng = np.random.default_rng(zlib.crc32(repr(case).encode()))
    x = rng.standard_normal((n, ci, h, w)).astype(dtype)
    kshape = (co, ci, k, k) if kind == "conv" else (ci, co, k, k)
    kernel = (0.1 * rng.standard_normal(kshape)).astype(dtype)
    xt, kt = T.Tensor(x, requires_grad=True), T.Tensor(kernel, requires_grad=True)
    with T.GradientTape() as tape:
        if kind == "conv":
            y = module.conv2d(xt, kt, stride, pad)
        else:
            y = module.conv2d_transpose(xt, kt, stride, pad, output_padding=out_pad)
        weights = np.random.default_rng(7).standard_normal(y.shape).astype(dtype)
        loss = T.reduce_sum(T.mul(y, T.Tensor(weights)))
    grads = tape.backward(loss)
    return y.data, grads[xt], grads[kt]


class TestConvAgainstReference:
    """The im2col/col2im convolutions against the sliding-window ones in
    tests/reference_conv.py: the same float32 bits for the output, the
    input gradient and the kernel gradient."""

    @pytest.mark.parametrize("case", CONV_CASES, ids=lambda c: "-".join(map(str, c)))
    def test_float32_bit_identical(self, case):
        got = _conv_and_grads(T, case, np.float32)
        ref = _conv_and_grads(reference_conv, case, np.float32)
        for name, a, b in zip(("output", "input grad", "kernel grad"), got, ref):
            assert a.dtype == b.dtype == np.float32 and a.flags.c_contiguous, name
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("case", CONV_CASES, ids=lambda c: "-".join(map(str, c)))
    def test_float64_matches(self, case):
        got = _conv_and_grads(T, case, np.float64)
        ref = _conv_and_grads(reference_conv, case, np.float64)
        for name, a, b in zip(("output", "input grad", "kernel grad"), got, ref):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max(),
                                       err_msg=name)

    @pytest.mark.parametrize("c,k,stride,n,h,w", [
        (4, 1, 1, 2, 5, 6), (4, 2, 2, 2, 5, 6), (4, 1, 2, 1, 5, 6), (4, 5, 2, 1, 5, 6),
        (16, 4, 2, 1, 17, 17)])
    def test_negative_zero_contributions(self, c, k, stride, n, h, w):
        # the GEMMs return +0.0 for a zero input times negative weights, so
        # -0.0 contributions are fed to the scatter directly: each adds to
        # the canvas's +0.0, in either path, as the reference's taps do
        rng = np.random.default_rng(c * 100 + k)
        contrib = rng.standard_normal((c * k * k, n * h * w)).astype(np.float32)
        contrib[:, ::2] = -0.0
        side = (h - 1) * stride + k, (w - 1) * stride + k
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
        cases = [("convT", 1, 8, 16, 5, 6, 4, 2, 1, 1), ("convT", 2, 8, 16, 3, 4, 5, 2, 2, 1)]
        T._scatter_index.cache_clear()
        kept = [_conv_and_grads(T, case, np.float32) for case in cases * 3]
        assert T._scatter_index.cache_info().hits > 0
        T._scatter_index.cache_clear()
        for case, got in zip(cases * 3, kept):
            fresh = _conv_and_grads(T, case, np.float32)
            T._scatter_index.cache_clear()
            for a, b in zip(got, fresh):
                assert a.tobytes() == b.tobytes()

    def test_scatter_cases_straddle_the_threshold(self):
        below, at, above = (16 * 4 * 4 * h * w for h, w in SCATTER_POSITIONS)
        assert below < at == T._SMALL_SCATTER < above

    @pytest.mark.parametrize("case", CONV_CASES, ids=lambda c: "-".join(map(str, c)))
    def test_im2col_never_shares_memory_with_its_input(self, case):
        # the window buffer is kept for backward; only the 1x1 stride-1
        # gather is documented as a view of its input
        kind, n, ci, co, h, w, k, stride, pad, out_pad = case
        if kind == "conv":
            x = np.zeros((n, ci, h + 2 * pad, w + 2 * pad))
            ho, wo = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
        else:  # the backward pass gathers from the uncropped output canvas
            x = np.zeros((n, co, (h - 1) * stride + k + out_pad, (w - 1) * stride + k + out_pad))
            ho, wo = h, w
        cols = T._im2col(x, k, k, stride, ho, wo)
        if k == stride == 1:
            assert np.shares_memory(cols, x)
        else:
            assert cols.flags.c_contiguous and not np.shares_memory(cols, x)


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

    def test_binary_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            T.add(T.Tensor([1.0, 2.0]), T.Tensor([1.0, 2.0, 3.0]))

    def test_domain_errors_identify_element(self):
        with pytest.raises(NumericDomainError, match=r"\(1,\)"):
            T.sqrt(T.Tensor([1.0, -1.0]))
        with pytest.raises(NumericDomainError, match=r"\(0,\)"):
            T.log2(T.Tensor([0.0, 1.0]))
        with pytest.raises(NumericDomainError, match="nonzero"):
            T.div(T.Tensor([1.0]), T.Tensor([0.0]))


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
    checks.append((lambda p, q: T.reduce_sum(T.square(T.channel_bias(p, q))), [ch, cb]))
    checks.append((lambda p, q: T.reduce_sum(T.square(T.tanh_coupling(p, q))), [ch, cb]))
    nchw = tensor64(r, (2, 3, 4, 4))
    vec = tensor64(r, (3,))
    checks.append((lambda p, q: T.reduce_sum(T.square(T.channel_scale(p, q))), [nchw, vec]))
    checks.append((lambda p, q: T.reduce_sum(T.square(T.channel_shift(p, q))), [nchw, vec]))
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


class TestRecordedForwards:
    """Each tape node records the ndarray kernel that made its output, and
    grad_check replays nodes by calling it.  On the node's own input
    arrays the kernel must return the output again: the same bits, dtype
    and shape, C-contiguous, because the small-GEMM layout rule makes
    downstream bits depend on layout."""

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
                got = node.forward(*[t.data for t in node.inputs])
                want = node.out.data
                assert (got.dtype, got.shape) == (want.dtype, want.shape), name
                assert got.flags.c_contiguous, name
                assert got.tobytes() == want.tobytes(), name
                covered.add(name)
        assert sorted(covered) == PRIMITIVES
