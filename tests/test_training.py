"""Training loop: objective structure, Adam oracle, tradeoff sampling,
determinism, checkpoints, schedules, and dataset handling."""

import hashlib
import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from maecodec import checkpoint, gradcheck, training
from maecodec import tensor as T
from maecodec.checkpoint import Checkpoint, model_from_checkpoint
from maecodec.codec import method_name
from maecodec.entropy import FactorizedDensity
from maecodec.exceptions import CheckpointError, ContractViolation, DatasetError
from maecodec.network import CodecConfig, CodecModel, TradeoffSet
from maecodec.synthetic import make_corpus
from maecodec.training import (NETWORK_MODES, Adam, TrainingConfig, load_training_config,
                               next_batch, rd_terms, sample_tradeoff, snapshot, train)

import reference_gradcheck

TR3 = TradeoffSet((64.0, 512.0, 4096.0))
# the one message for a file that is not what Checkpoint._layout writes back
NOT_WRITTEN = r"malformed checkpoint: not written as a checkpoint is \(every header key once"


def tiny_config(**overrides):
    base = dict(mode="mae", channels=16, mod_hidden=10, crop_size=32, batch_size=2,
                total_iters=4, halve_at=3, phase2_iters=2,
                lambdas=(64.0, 512.0, 4096.0), seed=0)
    base.update(overrides)
    return TrainingConfig(**base)


def tiny_model(mode="mae", seed=0, dtype=np.float32):
    return CodecModel(CodecConfig(channels=16, mod_hidden=10), TR3, mode,
                      seed=seed, dtype=dtype)


class TestRdLoss:
    def test_zero_distortion_leaves_rate_term(self, rng):
        # with lam * 0 the loss must equal bits per pixel exactly
        model = tiny_model()
        x = T.Tensor(rng.random((1, 3, 32, 32)).astype(np.float32))
        loss, bpp, mse = rd_terms(x, 64.0, model, noise_rng=np.random.default_rng(0))
        assert loss.item() == pytest.approx(bpp.item() + 64.0 * mse.item(), rel=1e-6)

    def test_linear_in_lambda(self, rng):
        model = tiny_model()
        x = T.Tensor(rng.random((1, 3, 32, 32)).astype(np.float32))
        noise = T.Tensor(np.zeros((1, 16, 2, 2), dtype=np.float32))
        _, bpp_a, mse_a = rd_terms(x, 512.0, model, noise=noise)
        loss_a = bpp_a.item() + 512.0 * mse_a.item()
        _, bpp_b, mse_b = rd_terms(x, 4096.0, model, noise=noise)
        # same lam_hat would be needed for exact equality; just verify the
        # lambda-weighted structure on a plain model where encode ignores lam
        plain = tiny_model("plain")
        l1, bpp1, mse1 = rd_terms(x, 512.0, plain, noise=noise)
        l2, bpp2, mse2 = rd_terms(x, 4096.0, plain, noise=noise)
        assert bpp1.item() == bpp2.item() and mse1.item() == mse2.item()
        assert l2.item() - l1.item() == pytest.approx((4096.0 - 512.0) * mse1.item(), rel=1e-5)

    def test_unknown_lambda_rejected(self, rng):
        model = tiny_model()
        x = T.Tensor(rng.random((1, 3, 32, 32)).astype(np.float32))
        with pytest.raises(ContractViolation):
            rd_terms(x, 100.0, model, noise_rng=np.random.default_rng(0))

    def test_objective_equivalence_full_sum_vs_sampling(self, rng):
        # the per-batch sampled objective is an unbiased estimator of the
        # uniform average over the tradeoff set
        model = tiny_model("plain", dtype=np.float64)
        x = T.Tensor(rng.random((1, 3, 32, 32)))
        noise = T.Tensor(np.zeros((1, 16, 2, 2)))
        losses = {lam: rd_terms(x, lam, model, noise=noise)[0].item() for lam in TR3}
        full_mean = float(np.mean(list(losses.values())))
        r = np.random.default_rng(123)
        draws = [losses[sample_tradeoff(TR3, r)] for _ in range(30000)]
        spread = np.std(list(losses.values()))
        assert abs(np.mean(draws) - full_mean) < 4 * spread / np.sqrt(len(draws))

    @pytest.mark.parametrize("seed", range(3))
    def test_full_loss_grad_check(self, seed):
        assert full_loss_grad_error(seed) < 1e-4

    def test_bottleneck_scale_grad_check(self):
        for fn, params in bottleneck_scale_programs():
            assert T.grad_check(fn, params) < 1e-4


class TestReplayedDifferences:
    """grad_check replays only the primitives downstream of each perturbed
    input; its f+- must have the bits of reference_gradcheck's full
    recompute of the whole program."""

    @staticmethod
    def assert_same_differences(fn, params):
        work = [T.Tensor(p.data.astype(np.float64), requires_grad=True) for p in params]
        with T.GradientTape() as tape:
            loss = fn(*work)
        replayed = gradcheck._numeric_gradients(fn, work, tape, loss, 1e-4)
        full = reference_gradcheck.numeric_gradients(fn, work, 1e-4)
        assert len(replayed) == len(full) == len(params)
        for a, b in zip(replayed, full):
            assert np.array_equal(a, b)

    def test_full_objective(self):
        self.assert_same_differences(*full_loss_program(0))

    def test_bottleneck_scales(self):
        for fn, params in bottleneck_scale_programs():
            self.assert_same_differences(fn, params)


def full_loss_program(seed):
    """(fn, params) of the complete objective on a 16x16 crop.

    Double precision end-to-end through encode, modulation, noise, rate,
    decode, and distortion.  The tradeoff set keeps the loss value O(0.1)
    so the central-difference oracle stays above its roundoff floor, and
    ReLU preactivations are nudged off the kink where finite differences
    are invalid.
    """
    tr = TradeoffSet((0.25, 1.0))
    r = np.random.default_rng(seed)
    model = CodecModel(CodecConfig(channels=3, mod_hidden=3),
                       tr, "mae", seed=seed, dtype=np.float64)
    lam = 0.25
    for net in model.mod_nets + model.demod_nets:
        pre = net.w1.data[0] * tr.normalized(lam) + net.b1.data
        net.b1.data[np.abs(pre) < 1e-3] += 0.05
    x = T.Tensor(r.random((1, 3, 16, 16)))
    noise = T.Tensor(r.uniform(-0.5, 0.5, size=(1, 3, 1, 1)))
    named = model.parameters()
    names = list(named)
    params = [named[n] for n in names]

    def fn(*ps):
        model.adopt_parameters(dict(zip(names, ps)))
        return rd_terms(x, lam, model, noise=noise)[0]

    return fn, params


def full_loss_grad_error(seed):
    """Finite-difference error of full_loss_program(seed)."""
    return T.grad_check(*full_loss_program(seed))


def bottleneck_scale_programs():
    """(fn, params) of the objective at each tradeoff of a bottleneck model,
    with respect to its scale vectors: the only path through a reciprocal
    site, as each scale vector multiplies the latent and its reciprocal
    the decoder's input."""
    tr = TradeoffSet((0.25, 1.0))
    r = np.random.default_rng(7)
    model = CodecModel(CodecConfig(channels=3, mod_hidden=3), tr, "bottleneck",
                       seed=7, dtype=np.float64)
    names = list(model.tradeoff_params)
    assert names == ["scale.0.25", "scale.1"]
    named = model.parameters()
    for name in names:
        named[name].data[:] = r.uniform(0.5, 2.0, size=3)
    x = T.Tensor(r.random((1, 3, 16, 16)))
    noise = T.Tensor(r.uniform(-0.5, 0.5, size=(1, 3, 1, 1)))
    params = [named[n] for n in names]

    def program(lam):
        def fn(*ps):
            model.adopt_parameters(dict(zip(names, ps)))
            return rd_terms(x, lam, model, noise=noise)[0]

        return fn

    return [(program(lam), params) for lam in tr]


class TestSampleTradeoff:
    def test_single_element(self):
        assert sample_tradeoff(TradeoffSet((7.0,)), np.random.default_rng(0)) == 7.0

    def test_uniform_frequencies(self):
        tr = TradeoffSet(tuple(float(2 ** k) for k in range(6, 13)))  # 7 values
        r = np.random.default_rng(99)
        n = 70000
        draws = [sample_tradeoff(tr, r) for _ in range(n)]
        counts = {lam: draws.count(lam) for lam in tr}
        expected = n / 7
        sigma = np.sqrt(n * (1 / 7) * (6 / 7))
        for lam, c in counts.items():
            assert abs(c - expected) <= 3 * sigma

    def test_deterministic_sequence(self):
        a = [sample_tradeoff(TR3, np.random.default_rng(5)) for _ in range(10)]
        b = [sample_tradeoff(TR3, np.random.default_rng(5)) for _ in range(10)]
        assert a == b


class TestAdam:
    def test_zero_gradient_is_noop(self, rng):
        p = T.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        before = p.data.copy()
        Adam([p]).step({p: np.zeros((3, 3))}, lr=0.1)
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_is_bias_corrected_unit_step(self):
        # closed form: m_hat = g, v_hat = g^2, step = -lr * g/(|g| + eps)
        p = T.Tensor(np.array([0.0]), requires_grad=True)
        Adam([p]).step({p: np.array([1.0])}, lr=0.1)
        assert p.data[0] == pytest.approx(-0.1, rel=1e-6)

    def test_projection_after_step(self):
        model = tiny_model()
        beta = model.parameters()["encoder.gdn0.beta"]
        from maecodec.training import adam_for_model

        opt, params = adam_for_model(model)
        grads = {p: np.zeros_like(p.data) for p in params}
        grads[beta] = np.full_like(beta.data, 1e9)  # huge push downward
        opt.step(grads, lr=1.0)
        model.project()
        assert beta.data.min() >= 1e-6

    def test_entropy_params_use_scaled_rate(self):
        model = tiny_model()
        from maecodec.training import adam_for_model

        opt, params = adam_for_model(model, lr_entropy_scale=5.0)
        named = model.parameters()
        density_param = named["density.matrix0"]
        other_param = named["encoder.conv0.kernel"]
        before_d = density_param.data.copy()
        before_o = other_param.data.copy()
        grads = {p: np.ones_like(p.data) for p in params}
        opt.step(grads, lr=0.01)
        step_d = np.abs(density_param.data - before_d).max()
        step_o = np.abs(other_param.data - before_o).max()
        assert step_d == pytest.approx(5 * step_o, rel=1e-5)


class TestTrainLoop:
    def test_zero_iterations_returns_initialization(self):
        cfg = tiny_config(total_iters=0, halve_at=0, phase2_iters=0)
        images = make_corpus(2, 32, 32)
        series = train(cfg, images)
        assert len(series) == 1 and series[0][0] == 0
        init = snapshot(CodecModel(cfg.codec_config, cfg.tradeoffs, "mae", seed=cfg.seed), 0)
        assert series[0][1].to_bytes() == init.to_bytes()

    def test_same_seed_bit_identical(self):
        images = make_corpus(2, 32, 32)
        a = train(tiny_config(total_iters=6, halve_at=4), images)[-1][1]
        b = train(tiny_config(total_iters=6, halve_at=4), images)[-1][1]
        assert a.to_bytes() == b.to_bytes()

    def test_different_seed_differs(self):
        images = make_corpus(2, 32, 32)
        a = train(tiny_config(total_iters=3, halve_at=3), images)[-1][1]
        b = train(tiny_config(total_iters=3, halve_at=3, seed=1), images)[-1][1]
        assert a.to_bytes() != b.to_bytes()

    def test_snapshot_cadence(self):
        images = make_corpus(2, 32, 32)
        # 5 top-tradeoff iterations, then 2 joint ones per non-top tradeoff
        series = train(tiny_config(total_iters=5, halve_at=5, snapshot_iters=(2, 4, 7)),
                       images)
        assert [it for it, _ in series] == [2, 4, 7, 9]

    def test_training_bits_pinned(self):
        # a few desk-shaped steps (32 channels, 64^2 crops, every stage's
        # GEMM and scatter path) per mode: a refactor of tensor, gdn,
        # entropy, network, training or synthetic that claims the same
        # bits fails here in a second, long before a desk retrain
        images = make_corpus(2, 64, 64)
        digest = hashlib.sha256()
        for mode, index in (("mae", None), ("bottleneck", None), ("independent", 0)):
            cfg = tiny_config(mode=mode, lambda_index=index, channels=32, crop_size=64,
                              total_iters=6, halve_at=5, phase2_iters=3, seed=3,
                              snapshot_iters=(1,))
            for _, ckpt in train(cfg, images):
                digest.update(ckpt.to_bytes())
        assert digest.hexdigest() == \
            "3e5dc3e980b323e5325bc05af6819eb233f4fb6e3e8617b96df7dc027f017f46"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bottleneck_holds_the_independent_top_model(self, seed):
        # the scale phases train the lower scale vectors alone, so the
        # bottleneck run's final checkpoint holds its first phase, the
        # independent run at the top tradeoff; the desk protocol writes
        # that model from the bottleneck job
        from desk_protocol import independent_top

        images = make_corpus(2, 32, 32)
        bottleneck = train(tiny_config(mode="bottleneck", seed=seed), images)[-1][1]
        independent = train(tiny_config(mode="independent", lambda_index=2, seed=seed),
                            images)[-1][1]
        assert independent_top(bottleneck).to_bytes() == independent.to_bytes()
        ones = np.ones(16, dtype=np.float32)
        np.testing.assert_array_equal(bottleneck.params["scale.4096"], ones)
        for low in ("scale.64", "scale.512"):
            assert not np.array_equal(bottleneck.params[low], ones), low

    @pytest.mark.parametrize("mode, lam, weight", [
        ("mae", 4096.0, 1.0),
        ("mae", 512.0, 8.0),
        ("mae", 64.0, 64.0),
        ("plain", 64.0, 1.0),
    ])
    def test_step_weights_each_tradeoff(self, mode, lam, weight):
        # a mae step follows max(lambdas) / lam times the gradient of
        # rd_terms, except in the entropy model; other modes follow it
        # unscaled, and the log keeps the unweighted rd_terms loss
        from maecodec.training import _iteration_rng, _train_steps

        class Recorder:
            def __init__(self):
                self.grads, self.rows = None, []

            def step(self, grads, lr):
                self.grads = {p: g.copy() for p, g in grads.items()}

            def row(self, *values):
                self.rows.append(values)

        images = make_corpus(2, 32, 32)
        cfg = tiny_config(mode=method_name(mode),
                          lambda_index=0 if mode == "plain" else None)
        model = tiny_model(mode, seed=4, dtype=np.float64)
        params = list(model.parameters().values())
        rec = Recorder()
        list(_train_steps(model, rec, params, cfg, images, phase=0, iterations=1,
                          pick_lambda=lambda rng: lam, log=rec))

        rng = _iteration_rng(cfg.seed, 0, 1)
        batch = next_batch(images, cfg.crop_size, cfg.batch_size, rng)
        with T.GradientTape() as tape:
            loss, _, _ = rd_terms(batch, lam, model, noise_rng=rng)
        expected = tape.backward(loss, params=params)
        density = set(model.density.parameters().values())
        for p in params:
            scale = 1.0 if p in density else weight
            np.testing.assert_allclose(rec.grads[p], scale * expected[p],
                                       rtol=1e-9, atol=1e-15)
        assert rec.rows[0][4] == pytest.approx(loss.item(), rel=1e-12)

    def test_mae_top_phase_holds_modulation(self):
        # the shared autoencoder trains alone at the top tradeoff; the
        # modulation networks move only in the joint phase that follows
        images = make_corpus(2, 32, 32)
        cfg = tiny_config(total_iters=3, halve_at=3, phase2_iters=2, snapshot_iters=(3,))
        series = train(cfg, images)
        assert [it for it, _ in series] == [3, 7]
        init = snapshot(CodecModel(cfg.codec_config, cfg.tradeoffs, "mae", seed=cfg.seed), 0)
        top_phase, final = series[0][1], series[-1][1]
        for name, block in top_phase.params.items():
            moved = not np.array_equal(block, init.params[name])
            assert moved != name.startswith(("modulate", "demodulate")), name
        assert not np.array_equal(final.params["modulate0.w2"], init.params["modulate0.w2"])

    def test_learning_rate_schedule_boundaries(self):
        cfg = tiny_config(total_iters=10, halve_at=4)
        assert cfg.learning_rate(4e-4, 1) == 4e-4
        assert cfg.learning_rate(4e-4, 4) == 4e-4
        assert cfg.learning_rate(4e-4, 5) == 2e-4
        assert cfg.learning_rate(4e-4, 10) == 2e-4

    def test_training_log_csv(self, tmp_path):
        images = make_corpus(2, 32, 32)
        log = tmp_path / "log.csv"
        train(tiny_config(total_iters=3, halve_at=3), images, log_path=log)
        lines = log.read_text().splitlines()
        assert lines[0] == "iteration,lambda,rate_bpp,mse,loss,lr,ms"
        # 3 top-tradeoff rows, then 2 joint rows per non-top tradeoff
        assert [line.split(",")[0] for line in lines[1:]] == [str(i) for i in range(1, 8)]
        # wall milliseconds since the row before
        assert all(float(line.split(",")[6]) >= 0.0 for line in lines[1:])


class TestGradientDtype:
    @pytest.mark.parametrize("mode", ["mae", "bottleneck", "independent"])
    def test_desk_step_keeps_float32_gradients(self, mode):
        # one float32 step of the desk shape (32 channels, two 96^2 crops):
        # a gradient promoted to float64 anywhere would run the rest of the
        # backward pass, and Adam, in float64
        model = CodecModel(CodecConfig(channels=32, mod_hidden=50), TR3,
                           NETWORK_MODES.get(mode, mode), seed=0)
        batch = next_batch(make_corpus(2, 96, 96), 96, 2, np.random.default_rng(0))
        named = model.parameters()
        with T.GradientTape() as tape:
            loss = rd_terms(batch, 64.0, model, noise_rng=np.random.default_rng(1))[0]
        grads = tape.backward(loss, params=list(named.values()))
        assert [n for n, p in named.items() if grads[p].dtype != p.dtype] == []


class TestCheckpoint:
    def test_moved_names_stay_importable(self):
        # callers look these up in training and tensor, where they lived
        assert training.Checkpoint is checkpoint.Checkpoint
        assert training.model_from_checkpoint is model_from_checkpoint
        assert T.grad_check is gradcheck.grad_check

    def test_save_load_save_identical(self, tmp_path):
        model = tiny_model(seed=2)
        ckpt = snapshot(model, 17)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        ckpt.save(p1)
        Checkpoint.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_hash_changes_with_params(self):
        model = tiny_model(seed=2)
        c1 = snapshot(model, 0)
        model.parameters()["encoder.conv0.kernel"].data[0, 0, 0, 0] += 1.0
        c2 = snapshot(model, 0)
        assert c1.model_hash != c2.model_hash

    def test_model_round_trip_restores_values(self):
        model = tiny_model(seed=4)
        restored = model_from_checkpoint(snapshot(model, 0))
        for (n1, t1), (n2, t2) in zip(sorted(model.parameters().items()),
                                      sorted(restored.parameters().items())):
            assert n1 == n2
            np.testing.assert_array_equal(t1.data, t2.data)

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        model = tiny_model()
        data = snapshot(model, 0).to_bytes()
        with pytest.raises(CheckpointError, match="magic"):
            Checkpoint.from_bytes(b"XXXX" + data[4:])
        with pytest.raises(CheckpointError, match="truncated"):
            Checkpoint.from_bytes(data[:-10])

    def test_short_checkpoint_rejected(self):
        with pytest.raises(CheckpointError, match="9-byte"):
            Checkpoint.from_bytes(b"MAEC\x01\x00")

    def test_header_missing_key_rejected(self):
        data = snapshot(tiny_model(), 0).to_bytes()
        head_len = struct.unpack(">I", data[5:9])[0]
        header = json.loads(data[9 : 9 + head_len])
        del header["mode"]
        head = checkpoint._canonical(header)
        with pytest.raises(CheckpointError, match="keys"):
            Checkpoint.from_bytes(data[:5] + struct.pack(">I", len(head)) + head
                                  + data[9 + head_len:])

    def test_header_fields_of_wrong_type_rejected(self):
        data = snapshot(tiny_model(), 0).to_bytes()
        head_len = struct.unpack(">I", data[5:9])[0]
        for field, value in (("params", 5),         # not a list of blocks
                             ("params", [["a"]]),   # a block without a shape
                             ("channels", "x"), ("channels", 2.5), ("channels", True),
                             ("mod_hidden", 2.5), ("iteration", "z"),
                             ("iteration", float("inf")),
                             # tradeoffs that are not finite numbers
                             ("lambdas", ["a"]), ("lambdas", [64, float("nan")]),
                             ("lambdas", [True]), ("lambdas", [10 ** 400]),
                             # a tradeoff index outside the 3 tradeoffs
                             ("lambda_index", 7), ("lambda_index", -1)):
            header = json.loads(data[9 : 9 + head_len])
            header[field] = value
            head = checkpoint._canonical(header)
            with pytest.raises(CheckpointError, match="malformed"):
                Checkpoint.from_bytes(data[:5] + struct.pack(">I", len(head)) + head
                                      + data[9 + head_len:])

    @staticmethod
    def _patched(model, index, **fields):
        data = snapshot(model, 2, lambda_index=index).to_bytes()
        head_len = struct.unpack(">I", data[5:9])[0]
        head = checkpoint._canonical(dict(json.loads(data[9 : 9 + head_len]), **fields))
        return data[:5] + struct.pack(">I", len(head)) + head + data[9 + head_len:]

    def test_non_integer_index_and_iteration_rejected(self):
        plain = tiny_model("plain")
        for fields in ({"lambda_index": 1.7}, {"lambda_index": True}, {"lambda_index": "1"},
                       {"iteration": 2.5}, {"iteration": True}):
            with pytest.raises(CheckpointError, match="malformed"):
                Checkpoint.from_bytes(self._patched(plain, 1, **fields))

    def test_header_version_other_than_the_preamble_rejected(self):
        for version in (7, 0, 1.0, True, "1", None):
            with pytest.raises(CheckpointError, match=NOT_WRITTEN):
                Checkpoint.from_bytes(self._patched(tiny_model(), None, version=version))

    def test_header_unknown_key_rejected(self):
        with pytest.raises(CheckpointError, match=NOT_WRITTEN):
            Checkpoint.from_bytes(self._patched(tiny_model(), None, foo=1))

    def test_header_that_to_bytes_does_not_write_rejected(self):
        # each of these used to load as the clean model, whose model_hash is
        # then not the hash of the file that was read
        ckpt = snapshot(tiny_model(), 0)
        data = ckpt.to_bytes()
        head_len = struct.unpack(">I", data[5:9])[0]
        header = json.loads(data[9 : 9 + head_len])
        names = sorted(ckpt.params)

        def file(head, order=names):
            blocks = b"".join(ckpt.params[n].astype("<f4").tobytes() for n in order)
            return data[:5] + struct.pack(">I", len(head)) + head + blocks

        def listing(order):
            return dict(header, params=[[n, list(ckpt.params[n].shape)] for n in order])

        no_index = {k: v for k, v in header.items() if k != "lambda_index"}
        reordered = [names[1], names[0]] + names[2:]
        for raw, message in (
                (file(checkpoint._canonical(no_index)), "keys"),
                (file(json.dumps(header).encode()), NOT_WRITTEN),
                (file(json.dumps(header, sort_keys=True, indent=1).encode()), NOT_WRITTEN),
                (file(json.dumps(dict(reversed(header.items())), separators=(",", ":")).encode()),
                 NOT_WRITTEN),
                (file(checkpoint._canonical(listing(reordered)), reordered), NOT_WRITTEN),
                (file(checkpoint._canonical(listing(names[:1] + names)), names[:1] + names),
                 NOT_WRITTEN),
                (data + bytes(4), NOT_WRITTEN)):
            assert raw != data
            with pytest.raises(CheckpointError, match=message):
                Checkpoint.from_bytes(raw)
        assert file(checkpoint._canonical(header)) == data
        assert Checkpoint.from_bytes(file(checkpoint._canonical(header))).to_bytes() == data

    @pytest.mark.parametrize("mode", ["mae", "bottleneck", "plain"])
    def test_file_and_hash_read_one_layout(self, mode):
        # blocks held as float64, as a transposed (not C-contiguous) view and
        # as big-endian float32 are written as the little-endian float32 file
        clean = snapshot(tiny_model(mode), 3, lambda_index=1 if mode == "plain" else None)
        kinds = (lambda a: a.astype(np.float64), lambda a: np.ascontiguousarray(a.T).T,
                 lambda a: a.astype(">f4"))
        held = dict(clean.params)
        for k, name in enumerate(sorted(held)):
            held[name] = kinds[k % 3](held[name])
        assert any(not a.flags.c_contiguous for a in held.values())
        ckpt = Checkpoint(clean.config, clean.mode, clean.lambdas, clean.iteration, held,
                          clean.lambda_index)
        head, *blocks = ckpt._layout()
        assert all(b.dtype == np.dtype("<f4") and b.flags.c_contiguous for b in blocks)
        data = ckpt.to_bytes()
        assert data == clean.to_bytes() and data.startswith(head)
        assert ckpt.model_hash == int.from_bytes(hashlib.sha256(data).digest()[:8], "big")
        assert Checkpoint.from_bytes(data).model_hash == ckpt.model_hash

    def test_model_hash_does_not_build_the_file(self, monkeypatch):
        ckpt = snapshot(tiny_model(), 0)
        expected = int.from_bytes(hashlib.sha256(ckpt.to_bytes()).digest()[:8], "big")

        def no_file(self):
            raise AssertionError("model_hash built the file")

        monkeypatch.setattr(Checkpoint, "to_bytes", no_file)
        assert ckpt.model_hash == expected

    def test_committed_checkpoints_load_with_the_hash_of_their_bytes(self):
        root = Path(__file__).resolve().parent.parent
        paths = sorted(root.glob("tests/_artifacts/*/*.ckpt"))
        paths.append(root / "benchmarks" / "data" / "desk_mae32_seed0.ckpt")
        for path in paths:
            data = path.read_bytes()
            expected = int.from_bytes(hashlib.sha256(data).digest()[:8], "big")
            ckpt = Checkpoint.from_bytes(data)
            assert ckpt.model_hash == expected and ckpt.to_bytes() == data, path.name

    def test_negative_iteration_rejected(self):
        with pytest.raises(CheckpointError, match="iteration must be an integer >= 0, got -3"):
            Checkpoint.from_bytes(self._patched(tiny_model(), None, iteration=-3))

    def test_lambda_index_outside_plain_mode_rejected(self):
        assert Checkpoint.from_bytes(self._patched(tiny_model("plain"), 1)).lambda_index == 1
        for mode in ("mae", "bottleneck"):
            with pytest.raises(CheckpointError, match=f"lambda_index set in mode '{mode}'"):
                Checkpoint.from_bytes(self._patched(tiny_model(mode), None, lambda_index=1))

    def test_architecture_mismatch_rejected(self):
        ckpt = snapshot(tiny_model(), 0)
        missing = dict(ckpt.params)
        del missing["modulate0.w1"]
        reshaped = dict(ckpt.params, **{"density.bias0": np.zeros((16, 3, 2), np.float32)})
        extra = dict(ckpt.params, **{"scale.64": np.ones(16, np.float32)})
        for params, message in ((missing, r"modulate0.w1 missing \(expected \(1, 10\)\)"),
                                (extra, r"scale.64 \(16,\) \(expected none\)"),
                                (reshaped, r"density.bias0 \(16, 3, 2\) \(expected \(16, 3, 1")):
            with pytest.raises(CheckpointError, match=message):
                model_from_checkpoint(Checkpoint(ckpt.config, ckpt.mode, ckpt.lambdas, 0, params))

    def test_declared_size_checked_before_allocation(self):
        # a ~250-byte edit of the header used to make the load draw a random
        # model of that size first: a MemoryError for 182 TiB
        data = snapshot(tiny_model(), 0).to_bytes()
        head_len = struct.unpack(">I", data[5:9])[0]
        header = json.loads(data[9 : 9 + head_len])
        header["channels"] = 10 ** 6
        head = checkpoint._canonical(header)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="do not match the architecture"):
                model_from_checkpoint(Checkpoint.from_bytes(
                    data[:5] + struct.pack(">I", len(head)) + head + data[9 + head_len:]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_load_draws_nothing(self, monkeypatch, dtype):
        drawn = tiny_model("bottleneck", seed=3)
        ckpt = snapshot(drawn, 0)

        def no_generator(*args, **kwargs):
            raise AssertionError("a checkpoint load created a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        model = model_from_checkpoint(ckpt, dtype=dtype)
        assert list(model.parameters()) == list(drawn.parameters())
        assert model.tradeoff_params == drawn.tradeoff_params
        for name, t in model.parameters().items():
            assert t.data.dtype == dtype
            np.testing.assert_array_equal(t.data, ckpt.params[name])

    def test_lambda_index_preserved(self):
        model = tiny_model("plain")
        ckpt = Checkpoint.from_bytes(snapshot(model, 5, lambda_index=2).to_bytes())
        assert ckpt.lambda_index == 2 and ckpt.iteration == 5


class TestDataset:
    def test_crop_exactly_image_size(self, rng):
        img = rng.random((32, 32, 3)).astype(np.float32)
        batch = next_batch([img], 32, 3, np.random.default_rng(0))
        for row in batch.data:
            np.testing.assert_array_equal(row, img.transpose(2, 0, 1))

    def test_crops_in_bounds_and_in_range(self):
        images = make_corpus(3, 48, 64)
        r = np.random.default_rng(1)
        for _ in range(200):
            batch = next_batch(images, 32, 4, r)
            assert batch.shape == (4, 3, 32, 32)
            assert batch.data.min() >= 0.0 and batch.data.max() <= 1.0

    def test_directory_loading_skips_bad_files(self, tmp_path):
        from maecodec.image_io import write_ppm

        write_ppm(tmp_path / "good.ppm", make_corpus(1, 32, 32)[0])
        (tmp_path / "junk.ppm").write_bytes(b"not an image")
        from maecodec.training import load_dataset

        with pytest.warns(UserWarning, match="skipping"):
            images = load_dataset(tmp_path)
        assert len(images) == 1

    def test_empty_directory_fails(self, tmp_path):
        from maecodec.training import load_dataset

        with pytest.raises(DatasetError):
            load_dataset(tmp_path)

    def test_all_images_too_small(self, tmp_path):
        from maecodec.image_io import write_ppm
        from maecodec.training import load_dataset

        write_ppm(tmp_path / "small.ppm", make_corpus(1, 16, 16)[0])
        with pytest.raises(DatasetError, match="smaller"):
            load_dataset(tmp_path, min_size=48)


class TestConfigFile:
    def test_parse_and_defaults(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text(
            "# desk run\nmode = bottleneck\nchannels = 32\nlambdas = 64,512,4096\n"
            "total_iters = 100  # short\nhalve_at=50\nseed = 9\n")
        cfg = load_training_config(path)
        assert cfg.mode == "bottleneck" and cfg.channels == 32
        assert cfg.lambdas == (64.0, 512.0, 4096.0)
        assert cfg.total_iters == 100 and cfg.halve_at == 50 and cfg.seed == 9
        assert cfg.batch_size == 8  # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("wibble = 3\n")
        with pytest.raises(ContractViolation, match="wibble"):
            load_training_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        # the last line used to win silently
        path = tmp_path / "dup.cfg"
        path.write_text("channels = 8\nmode = mae\nchannels = 16\n")
        with pytest.raises(ContractViolation, match="dup.cfg:3: duplicate key 'channels'"):
            load_training_config(path)

    def test_invariants_enforced(self):
        with pytest.raises(ContractViolation):
            tiny_config(crop_size=40)
        with pytest.raises(ContractViolation):
            tiny_config(total_iters=5, halve_at=9)
        with pytest.raises(ContractViolation):
            tiny_config(mode="independent")  # missing lambda_index
        for bad in (float("nan"), float("inf")):
            # as a config file line "lambdas = 64,nan" gives
            with pytest.raises(ContractViolation, match="finite"):
                tiny_config(lambdas=(64.0, bad))

    def test_lambda_index_outside_the_set_rejected(self):
        # 3 used to fail later with an IndexError in train(); -1 trained at
        # the top tradeoff and wrote an index compress_image refuses; mae
        # and bottleneck runs ignored it and wrote checkpoints without it
        for mode, index in (("independent", 3), ("independent", -1), ("mae", 0),
                            ("bottleneck", 0)):
            with pytest.raises(ContractViolation, match="lambda_index"):
                tiny_config(mode=mode, lambda_index=index)

    def test_negative_phase2_iters_rejected(self):
        # used to label the final mae checkpoint with a negative iteration
        with pytest.raises(ContractViolation, match="iteration counts"):
            tiny_config(phase2_iters=-2)

    @pytest.mark.parametrize("line", ["channels = abc", "lambdas = 64,x",
                                      "snapshot_iters = 1,,2"])
    def test_malformed_value_rejected(self, tmp_path, line):
        # used to end in a bare ValueError from int() or float()
        path = tmp_path / "bad.cfg"
        path.write_text(f"mode = mae\n{line}\n")
        key = line.split(" =")[0]
        with pytest.raises(ContractViolation, match=f"bad.cfg:2: {key}: "):
            load_training_config(path)

    def test_snapshot_iterations_must_fall_inside_the_run(self):
        # mae: 3 top-tradeoff iterations and no joint ones, final iteration 3;
        # the bad entries used to be dropped silently
        for snaps in ((50, -1, 2), (0,), (3,)):
            with pytest.raises(ContractViolation, match=r"snapshot iterations must lie in 1\.\.2"):
                tiny_config(total_iters=3, halve_at=3, phase2_iters=0, snapshot_iters=snaps)
        # bottleneck: iteration 4 lies in the scale phases, which do not count
        with pytest.raises(ContractViolation, match=r"1\.\.2"):
            tiny_config(mode="bottleneck", total_iters=3, halve_at=3, snapshot_iters=(4,))
        # mae: the joint phase counts, up to 4 + 2 * 2 = 8
        assert tiny_config(snapshot_iters=(1, 7)).snapshot_iters == (1, 7)
        with pytest.raises(ContractViolation, match=r"1\.\.7"):
            tiny_config(snapshot_iters=(8,))

    def test_bottleneck_snapshot_in_the_top_phase(self):
        cfg = tiny_config(mode="bottleneck", total_iters=3, halve_at=3, phase2_iters=1,
                          snapshot_iters=(2,))
        assert [it for it, _ in train(cfg, make_corpus(2, 32, 32))] == [2, 3]
