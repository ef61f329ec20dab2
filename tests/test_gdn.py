"""GDN/IGDN: formula against a per-pixel scalar loop, gradients, and the
parameter projection invariant."""

import numpy as np
import pytest

from maecodec import tensor as T
from maecodec.exceptions import ContractViolation
from maecodec.gdn import BETA_FLOOR, gdn_forward, igdn_forward
from maecodec.network import CodecConfig, CodecModel, TradeoffSet


def _params(beta, gamma):
    return (T.Tensor(np.asarray(beta, dtype=np.float64), requires_grad=True),
            T.Tensor(np.asarray(gamma, dtype=np.float64), requires_grad=True))


def _model_gdn_blocks():
    """A model and its five (beta, gamma) GDN/IGDN parameter pairs."""
    model = CodecModel(CodecConfig(channels=4, mod_hidden=2), TradeoffSet((1.0,)), "plain")
    named = model.parameters()
    blocks = [(named[n], named[n[: -len("beta")] + "gamma"]) for n in named
              if n.endswith(".beta")]
    assert len(blocks) == 5
    return model, blocks


def gdn_loops(x, beta, gamma, inverse=False):
    """Independent per-pixel scalar reference."""
    n, c, h, w = x.shape
    out = np.zeros_like(x)
    for nn in range(n):
        for i in range(h):
            for j in range(w):
                sq = x[nn, :, i, j] ** 2
                for ch in range(c):
                    norm = np.sqrt(beta[ch] + (gamma[ch] * sq).sum())
                    out[nn, ch, i, j] = x[nn, ch, i, j] * norm if inverse \
                        else x[nn, ch, i, j] / norm
    return out


class TestForward:
    def test_identity_when_gamma_zero_beta_one(self, rng):
        x = T.Tensor(rng.normal(size=(1, 3, 4, 4)))
        p = _params(np.ones(3), np.zeros((3, 3)))
        np.testing.assert_allclose(gdn_forward(x, *p).data, x.data, rtol=1e-12)
        np.testing.assert_allclose(igdn_forward(x, *p).data, x.data, rtol=1e-12)

    def test_single_channel_closed_form(self):
        x = T.Tensor(np.ones((1, 1, 1, 1)))
        p = _params([1.0], [[1.0]])
        assert gdn_forward(x, *p).item() == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-5)
        assert igdn_forward(x, *p).item() == pytest.approx(np.sqrt(2.0), abs=1e-5)

    def test_matches_loop_reference(self, rng):
        x = rng.normal(size=(2, 3, 5, 5))
        beta = rng.uniform(0.5, 2.0, size=3)
        gamma = rng.uniform(0.0, 0.5, size=(3, 3))
        p = _params(beta, gamma)
        np.testing.assert_allclose(gdn_forward(T.Tensor(x), *p).data,
                                   gdn_loops(x, beta, gamma), rtol=1e-6)
        np.testing.assert_allclose(igdn_forward(T.Tensor(x), *p).data,
                                   gdn_loops(x, beta, gamma, inverse=True), rtol=1e-6)

    def test_igdn_inverts_gdn_only_when_gamma_zero(self, rng):
        x = rng.normal(size=(1, 2, 3, 3))
        ident = _params(np.full(2, 1.7), np.zeros((2, 2)))
        round_trip = igdn_forward(gdn_forward(T.Tensor(x), *ident), *ident).data
        np.testing.assert_allclose(round_trip, x, atol=1e-3)
        coupled = _params(np.ones(2), 0.3 * np.ones((2, 2)))
        round_trip = igdn_forward(gdn_forward(T.Tensor(x), *coupled), *coupled).data
        assert np.abs(round_trip - x).max() > 1e-3  # not an inverse pair

    def test_channel_mismatch(self, rng):
        p = _params(np.ones(3), np.zeros((3, 3)))
        with pytest.raises(ContractViolation):
            gdn_forward(T.Tensor(rng.normal(size=(1, 4, 2, 2))), *p)

    def test_output_magnitude_bound(self, rng):
        x = rng.normal(size=(1, 3, 6, 6)) * 5.0
        beta = np.full(3, BETA_FLOOR)
        gamma = rng.uniform(0, 1, size=(3, 3))
        y = gdn_forward(T.Tensor(x), *_params(beta, gamma)).data
        assert (np.abs(y) <= np.abs(x) / np.sqrt(BETA_FLOOR) + 1e-9).all()
        y1 = gdn_forward(T.Tensor(x), *_params(np.ones(3), gamma)).data
        assert (np.abs(y1) <= np.abs(x) + 1e-12).all()


class TestGradients:
    @pytest.mark.parametrize("seed", range(10))
    def test_grad_check(self, seed):
        r = np.random.default_rng(seed)
        x = T.Tensor(r.normal(size=(1, 3, 4, 4)), requires_grad=True)
        beta = T.Tensor(r.uniform(0.5, 1.5, size=3), requires_grad=True)
        gamma = T.Tensor(r.uniform(0.05, 0.5, size=(3, 3)), requires_grad=True)

        def fwd(xv, bv, gv):
            return T.reduce_sum(T.square(gdn_forward(xv, bv, gv)))

        def inv(xv, bv, gv):
            return T.reduce_sum(T.square(igdn_forward(xv, bv, gv)))

        assert T.grad_check(fwd, [x, beta, gamma]) < 1e-4
        assert T.grad_check(inv, [x, beta, gamma]) < 1e-4


class TestProjection:
    def test_projection_restores_feasible_set(self):
        model, blocks = _model_gdn_blocks()
        for beta, gamma in blocks:
            beta.data -= 5.0
            gamma.data -= 1.0
        model.project()
        for beta, gamma in blocks:
            assert beta.data.min() >= BETA_FLOOR
            assert gamma.data.min() >= 0.0

    def test_init_near_identity(self):
        _, blocks = _model_gdn_blocks()
        for beta, gamma in blocks:
            np.testing.assert_array_equal(beta.data, np.ones(4, dtype=np.float32))
            np.testing.assert_allclose(gamma.data, 0.1 * np.eye(4), rtol=1e-6)
