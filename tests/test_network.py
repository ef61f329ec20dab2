"""Codec network: shapes, modulation positivity and smoothness, identity
reductions, bottleneck scaling, the parameter store, and parameter
accounting."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from maecodec import tensor as T
from maecodec.checkpoint import Checkpoint, model_from_checkpoint
from maecodec.entropy import quantize, rate_bits
from maecodec.exceptions import ContractViolation
from maecodec.network import MODES, CodecConfig, CodecModel, TradeoffSet, param_count

DESK = CodecConfig(channels=16, mod_hidden=20)
TR3 = TradeoffSet((64.0, 512.0, 4096.0))


def desk_model(mode="mae", seed=0):
    return CodecModel(DESK, TR3, mode, seed=seed)


class TestTradeoffSet:
    def test_normalization(self):
        tr = TradeoffSet()
        assert tr.normalized(4096.0) == 1.0
        assert tr.normalized(64.0) == pytest.approx(64.0 / 4096.0)
        assert all(0 < tr.normalized(l) <= 1 for l in tr)

    def test_validation(self):
        with pytest.raises(ContractViolation):
            TradeoffSet((0.0, 1.0))
        with pytest.raises(ContractViolation):
            TradeoffSet((4.0, 2.0))
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ContractViolation, match="finite"):
                TradeoffSet((64.0, bad))
        with pytest.raises(ContractViolation):
            TradeoffSet().normalized(100.0)


class TestModulation:
    def test_zero_final_layer_gives_ones(self):
        m = desk_model()
        for net in m.mod_nets + m.demod_nets:
            net.w2.data[:] = 0.0
            net.b2.data[:] = 0.0
        for net in m.mod_nets + m.demod_nets:
            np.testing.assert_array_equal(net(0.5).data, np.ones(DESK.channels, dtype=np.float32))

    def test_positive_for_many_draws(self):
        # 10^4 random parameter draws x tradeoff grid, every entry > 0
        rng = np.random.default_rng(0)
        m = desk_model()
        grid = np.linspace(0.01, 1.0, 8)
        for _ in range(10_000 // 8):
            for net in m.mod_nets:
                net.w1.data[:] = rng.normal(size=net.w1.shape)
                net.b1.data[:] = rng.normal(size=net.b1.shape)
                net.w2.data[:] = rng.normal(size=net.w2.shape)
                net.b2.data[:] = rng.normal(size=net.b2.shape)
            for lam_hat in grid:
                for net in m.mod_nets:
                    assert (net(float(lam_hat)).data > 0).all()

    def test_out_of_range_tradeoff(self):
        m = desk_model()
        with pytest.raises(ContractViolation):
            m.mod_nets[0](0.0)
        with pytest.raises(ContractViolation):
            m.mod_nets[0](1.5)

    def test_vector_extent_matches_channels(self):
        m = desk_model()
        for net in m.mod_nets + m.demod_nets:
            assert net(1.0).shape == (DESK.channels,)

    def test_demodulation_not_reciprocal_of_modulation(self):
        # decoder vectors are independent parameters, not 1/m
        m = desk_model(seed=3)
        mod, demod = m.mod_nets[0](0.25), m.demod_nets[0](0.25)
        assert np.abs(mod.data * demod.data - 1.0).max() > 1e-6

    def test_smoothness_in_lambda_hat(self):
        m = desk_model(seed=1)
        for net in m.mod_nets:
            net.w2.data[:] = np.random.default_rng(2).normal(0, 0.3, size=net.w2.shape)
        grid = np.linspace(0.05, 1.0, 200)
        vecs = np.stack([m.mod_nets[0](float(g)).data for g in grid])
        step = np.abs(np.diff(vecs, axis=0)).max()
        assert step < 0.05  # continuous: vanishing change for vanishing step

    def test_parameter_count_per_network(self):
        counts = param_count(CodecConfig(channels=192, mod_hidden=50))
        per_net = (1 * 50 + 50) + (50 * 192 + 192)
        assert per_net == 9892
        assert counts["modulation"] == 6 * per_net == 59352


class TestEncodeDecodeShapes:
    def test_latent_shape(self, rng):
        m = desk_model()
        x = T.Tensor(rng.random((1, 3, 64, 64)).astype(np.float32))
        z = m.encode(x, 4096.0)
        assert z.shape == (1, DESK.channels, 4, 4)
        assert m.decode(z, 4096.0).shape == (1, 3, 64, 64)

    @pytest.mark.parametrize("side", [16, 32, 48, 80, 128, 256])
    def test_shape_round_trip(self, rng, side):
        m = desk_model()
        x = T.Tensor(rng.random((1, 3, side, side)).astype(np.float32))
        out = m.decode(m.encode(x, 512.0), 512.0)
        assert out.shape == x.shape

    def test_side_not_multiple_of_16_rejected(self, rng):
        m = desk_model()
        with pytest.raises(ContractViolation):
            m.encode(T.Tensor(rng.random((1, 3, 40, 48)).astype(np.float32)), 512.0)

    def test_training_path_output_not_clamped(self, rng):
        m = desk_model()
        x = T.Tensor((rng.random((1, 3, 32, 32)) * 4 - 2).astype(np.float32))
        raw = m.decode(m.encode(T.Tensor(np.clip(x.data, 0, 1)), 4096.0), 4096.0)
        clamped = m.decode(m.encode(T.Tensor(np.clip(x.data, 0, 1)), 4096.0), 4096.0,
                           clamp=True)
        assert raw.data.min() < 0 or raw.data.max() > 1  # untrained decoder strays
        assert clamped.data.min() >= 0 and clamped.data.max() <= 1


class TestIdentityReduction:
    def test_all_ones_modulation_is_bit_exact_plain(self, rng):
        mae = desk_model(seed=5)
        plain = CodecModel(DESK, TR3, "plain", seed=5)
        # same shared weights (same seed and draw order), modulation forced to 1
        for net in mae.mod_nets + mae.demod_nets:
            net.w2.data[:] = 0.0
            net.b2.data[:] = 0.0
        x = T.Tensor(rng.random((1, 3, 48, 48)).astype(np.float32))
        z_mae = mae.encode(x, 4096.0)
        z_plain = plain.encode(x, 4096.0)
        np.testing.assert_array_equal(z_mae.data, z_plain.data)
        np.testing.assert_array_equal(mae.decode(z_mae, 4096.0).data,
                                      plain.decode(z_plain, 4096.0).data)


def bottleneck_and_plain(seed=0, channels=4):
    """A float64 bottleneck model and the plain model with its weights
    (same seed and draw order; scale vectors take no draws)."""
    config = CodecConfig(channels=channels, mod_hidden=2)
    return (CodecModel(config, TR3, "bottleneck", seed=seed, dtype=np.float64),
            CodecModel(config, TR3, "plain", seed=seed, dtype=np.float64))


class TestBottleneckScaling:
    def test_identity_scale(self, rng):
        bn, plain = bottleneck_and_plain()
        x = T.Tensor(rng.random((1, 3, 32, 32)))
        for lam in TR3:  # every scale vector starts at 1
            z = bn.encode(x, lam)
            np.testing.assert_array_equal(z.data, plain.encode(x, lam).data)
            np.testing.assert_array_equal(bn.decode(z, lam).data, plain.decode(z, lam).data)

    def test_invert_reverses_apply(self, rng):
        bn, plain = bottleneck_and_plain()
        s = bn.parameters()["scale.64"].data
        s[:] = rng.uniform(0.5, 3.0, size=4)
        x = T.Tensor(rng.random((2, 3, 32, 32)))
        z = plain.encode(x, 64.0)
        z_scaled = bn.encode(x, 64.0)
        np.testing.assert_allclose(z_scaled.data, z.data * s[:, None, None], rtol=1e-12)
        np.testing.assert_allclose(bn.decode(z_scaled, 64.0).data, plain.decode(z, 64.0).data,
                                   rtol=1e-10, atol=1e-12)

    def test_nonpositive_scale_rejected(self, rng):
        bn, _ = bottleneck_and_plain(channels=3)
        bn.parameters()["scale.512"].data[:] = [1.0, 0.0, 2.0]
        with pytest.raises(ContractViolation, match="entry 1"):
            bn.encode(T.Tensor(rng.random((1, 3, 16, 16))), 512.0)
        with pytest.raises(ContractViolation, match="entry 1"):
            bn.decode(T.Tensor(rng.normal(size=(1, 3, 1, 1))), 512.0)

    def test_larger_scale_never_cheaper(self):
        # finer effective bins: doubling s cannot reduce the coded rate
        bn, _ = bottleneck_and_plain()
        named = bn.parameters()
        for seed in range(5):
            r = np.random.default_rng(seed)
            x = T.Tensor(r.random((1, 3, 96, 96)))
            named["scale.64"].data[:] = r.uniform(2.0, 8.0, size=4)
            named["scale.512"].data[:] = 2.0 * named["scale.64"].data
            bits0, bits1 = (
                rate_bits(T.Tensor(quantize(bn.encode(x, lam)).astype(np.float64)),
                          bn.density).item()
                for lam in (64.0, 512.0))
            assert bits1 >= bits0 - 1e-9

    def test_colliding_scale_names_rejected(self):
        # scale.{lam:g} names agree for tradeoffs equal to 6 significant digits
        close = TradeoffSet((1e6, 1000001.0))
        with pytest.raises(ContractViolation, match="colliding"):
            CodecModel(CodecConfig(channels=4, mod_hidden=2), close, "bottleneck")
        for mode in ("mae", "plain"):  # no scale vectors, nothing to collide
            CodecModel(CodecConfig(channels=4, mod_hidden=2), close, mode)


class TestParameterStore:
    @pytest.mark.parametrize("mode", ["mae", "plain", "bottleneck"])
    def test_tradeoff_outside_the_set_rejected(self, rng, mode):
        m = desk_model(mode)
        x = T.Tensor(rng.random((1, 3, 16, 16)).astype(np.float32))
        with pytest.raises(ContractViolation, match="not in"):
            m.encode(x, 1.0)
        with pytest.raises(ContractViolation, match="not in"):
            m.decode(m.encode(x, 64.0), 100.0)

    def test_adopted_tensors_are_what_the_model_reads(self, rng):
        m = desk_model()
        named = m.parameters()
        assert m.parameters() is named
        w1 = T.Tensor(rng.normal(size=named["modulate0.w1"].shape).astype(np.float32))
        bias = T.Tensor(np.zeros(named["density.bias0"].shape, dtype=np.float32))
        m.adopt_parameters({"modulate0.w1": w1, "density.bias0": bias})
        assert named["modulate0.w1"] is w1 and m.mod_nets[0].w1 is w1
        assert m.density.parameters()["density.bias0"] is bias
        with pytest.raises(ContractViolation, match="unknown"):
            m.adopt_parameters({"scale.64": w1})
        with pytest.raises(ContractViolation, match="shape"):
            m.adopt_parameters({"modulate0.b1": w1})


class TestParamCount:
    def test_default_config_against_published_sizes(self):
        counts = param_count(CodecConfig())
        assert abs(counts["shared"] - 28.02e6 / 7) / (28.02e6 / 7) < 0.05
        assert abs(counts["modulation"] - 59352) / 59352 < 0.10
        assert abs(counts["mae_total"] - 4.06e6) / 4.06e6 < 0.05
        assert abs(counts["independent_total"] - 28.02e6) / 28.02e6 < 0.05

    def test_shared_ratio(self):
        counts = param_count(CodecConfig())
        ratio = 7 * counts["shared"] / counts["mae_total"]
        assert 6.7 <= ratio <= 7.0

    def test_count_is_pure_function_of_config(self):
        config, tradeoffs = CodecConfig(channels=24), TradeoffSet((1.0, 2.0))
        counts = param_count(config, tradeoffs)
        sizes = {mode: sum(t.size for t in CodecModel(config, tradeoffs, mode).parameters().values())
                 for mode in MODES}
        assert sizes["plain"] == counts["shared"]
        assert sizes["mae"] == counts["mae_total"]
        assert sizes["bottleneck"] == counts["bottleneck_total"]
        assert len(tradeoffs) * sizes["plain"] == counts["independent_total"]

    def test_totals_are_consistent(self):
        counts = param_count(CodecConfig(channels=64))
        assert counts["mae_total"] == counts["shared"] + counts["modulation"]
        assert counts["bottleneck_total"] == counts["shared"] + counts["scaling"]


# (channels, mod_hidden, tradeoffs, seed, dtype): the initializations whose
# bits test_initial_parameters_are_pinned holds fixed
INIT_CASES = (
    (4, 2, (1.0,), 0, np.float64),
    (8, 3, (64.0, 512.0, 4096.0), 1, np.float32),
    (16, 10, (64.0, 512.0, 4096.0), 7, np.float64),
    (5, 4, (1.0, 2.0, 3.0, 4.0), 3, np.float32),
)


BENCH_CHECKPOINT = (Path(__file__).resolve().parents[1] / "benchmarks" / "data"
                    / "desk_mae32_seed0.ckpt")


def models_digest(models):
    """Digest of the models' parameters (names in order, shapes, dtypes,
    bytes), tradeoff_params and perceptron prefixes."""
    h = hashlib.sha256()
    for m in models:
        for name, t in m.parameters().items():
            h.update(f"{name} {t.shape} {t.data.dtype.str}".encode())
            h.update(t.data.tobytes())
        h.update(repr(list(m.tradeoff_params.items())).encode())
        h.update(repr([net.prefix for net in m.mod_nets + m.demod_nets]).encode())
    return h.hexdigest()[:16]


def initial_parameters_digest():
    return models_digest(
        CodecModel(CodecConfig(channels=channels, mod_hidden=hidden), TradeoffSet(lambdas),
                   mode, dtype=dtype, seed=seed)
        for channels, hidden, lambdas, seed, dtype in INIT_CASES for mode in MODES)


class TestPinnedParameters:
    def test_initial_parameters_are_pinned(self):
        # a rewrite of the initialization must keep every drawn bit
        assert initial_parameters_digest() == "aabb2858f85f3419"

    def test_checkpoint_loads_are_pinned(self):
        ckpt = Checkpoint.load(BENCH_CHECKPOINT)
        loads = [model_from_checkpoint(ckpt, dtype=dtype) for dtype in (np.float32, np.float64)]
        assert models_digest(loads) == "28f6a59ad7e5fd75"

    def test_param_count_is_pinned(self):
        counts = param_count(CodecConfig())
        assert (counts["shared"], counts["modulation"], counts["scaling"],
                counts["mae_total"]) == (3_974_211, 59_352, 1_344, 4_033_563)
        counts = param_count(CodecConfig(channels=32), TradeoffSet((64.0, 512.0, 4096.0)))
        assert (counts["shared"], counts["modulation"], counts["scaling"]) == (
            124_771, 10_392, 96)
