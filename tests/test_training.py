"""Training loop: objective structure, Adam oracle, tradeoff sampling,
determinism, checkpoints, schedules, and dataset handling."""

import json
import struct

import numpy as np
import pytest

from maecodec import tensor as T
from maecodec.codec import method_name
from maecodec.entropy import FactorizedDensity
from maecodec.exceptions import CheckpointError, ContractViolation, DatasetError
from maecodec.network import CodecConfig, CodecModel, TradeoffSet
from maecodec.synthetic import make_corpus
from maecodec.training import (Adam, Checkpoint, TrainingConfig, load_training_config,
                               model_from_checkpoint, next_batch, rd_terms,
                               sample_tradeoff, snapshot, train)

TR3 = TradeoffSet((64.0, 512.0, 4096.0))


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


def full_loss_grad_error(seed):
    """Finite-difference error of the complete objective on a 16x16 crop.

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

    return T.grad_check(fn, params)


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

    def test_bottleneck_freezes_transforms(self):
        images = make_corpus(2, 32, 32)
        cfg = tiny_config(mode="bottleneck", total_iters=3, halve_at=3,
                          phase2_iters=2, snapshot_iters=(3,))
        series = train(cfg, images)
        phase1 = series[0][1]  # snapshot right after phase 1
        final = series[-1][1]
        for name, block in final.params.items():
            if name.startswith("scale."):
                continue
            np.testing.assert_array_equal(block, phase1.params[name],
                                          err_msg=f"{name} moved during phase 2")
        top = max(cfg.lambdas)
        np.testing.assert_array_equal(final.params[f"scale.{top:g}"],
                                      np.ones(cfg.channels, dtype=np.float32))
        low = min(cfg.lambdas)
        assert not np.array_equal(final.params[f"scale.{low:g}"],
                                  np.ones(cfg.channels, dtype=np.float32))

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
        cfg = tiny_config(mode=method_name(mode), lambda_index=0)
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
        assert lines[0] == "iteration,lambda,rate_bpp,mse,loss,lr"
        # 3 top-tradeoff rows, then 2 joint rows per non-top tradeoff
        assert [line.split(",")[0] for line in lines[1:]] == [str(i) for i in range(1, 8)]


class TestCheckpoint:
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
        head = json.dumps(header).encode()
        with pytest.raises(CheckpointError, match="keys"):
            Checkpoint.from_bytes(data[:5] + struct.pack(">I", len(head)) + head
                                  + data[9 + head_len:])

    def test_header_fields_of_wrong_type_rejected(self):
        data = snapshot(tiny_model(), 0).to_bytes()
        head_len = struct.unpack(">I", data[5:9])[0]
        for field, value in (("params", 5),         # not a list of blocks
                             ("params", [["a"]]),   # a block without a shape
                             ("channels", "x"), ("iteration", "z")):
            header = json.loads(data[9 : 9 + head_len])
            header[field] = value
            head = json.dumps(header).encode()
            with pytest.raises(CheckpointError, match="malformed"):
                Checkpoint.from_bytes(data[:5] + struct.pack(">I", len(head)) + head
                                      + data[9 + head_len:])

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

    def test_invariants_enforced(self):
        with pytest.raises(ContractViolation):
            tiny_config(crop_size=40)
        with pytest.raises(ContractViolation):
            tiny_config(total_iters=5, halve_at=9)
        with pytest.raises(ContractViolation):
            tiny_config(mode="independent")  # missing lambda_index

    def test_lambda_index_outside_the_set_rejected(self):
        # 3 used to fail later with an IndexError in train(); -1 trained at
        # the top tradeoff and wrote an index compress_image refuses
        for index in (3, -1):
            with pytest.raises(ContractViolation, match="lambda_index"):
                tiny_config(mode="independent", lambda_index=index)

    def test_negative_phase2_iters_rejected(self):
        # used to label the final mae checkpoint with a negative iteration
        with pytest.raises(ContractViolation, match="iteration counts"):
            tiny_config(phase2_iters=-2)
