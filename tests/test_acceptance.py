"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criterion 5 trains the full desk protocol (three methods, three seeds);
checkpoints are cached under tests/_artifacts keyed by a source digest,
so only the first run pays the training cost.  Run with -s to watch
progress.
"""

import numpy as np
import pytest

import desk_protocol as desk
from maecodec import tensor as T
from maecodec.codec import LoadedCodec, compress_image, evaluate_image, feature_ratio
from maecodec.entropy import TOTAL_FREQ, quantize, rate_bits
from maecodec.network import CodecConfig, CodecModel, TradeoffSet, param_count
from maecodec.rangecoder import HEADER_SIZE, Bitstream
from maecodec.training import (Checkpoint, TrainingConfig, model_from_checkpoint,
                               rd_terms, snapshot, train)
from test_rangecoder import random_table
from test_training import full_loss_grad_error


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def desk_paths():
    return desk.ensure_trained(log=lambda msg: print(msg, flush=True))


@pytest.fixture(scope="session")
def desk_eval_images():
    return desk.test_images()


def _codec(paths, key, iteration=desk.TOTAL_ITERS):
    return LoadedCodec(Checkpoint.load(paths[key][iteration]))


# -- 1 ----------------------------------------------------------------------


def test_criterion_1_parameter_counts():
    counts = param_count(CodecConfig())
    shared_target = 28.02e6 / 7
    shared_err = abs(counts["shared"] - shared_target) / shared_target
    mod_err = abs(counts["modulation"] - 59352) / 59352
    total_err = abs(counts["mae_total"] - 4.06e6) / 4.06e6
    report(
        "1 parameter counts",
        shared_err < 0.05 and mod_err < 0.10 and total_err < 0.05,
        f"shared {counts['shared']:,} ({shared_err:+.2%} vs 4.003M), "
        f"modulation {counts['modulation']:,} ({mod_err:+.2%}), "
        f"mae {counts['mae_total']:,} ({total_err:+.2%} vs 4.06M)",
    )


# -- 2 ----------------------------------------------------------------------


# Each seed runs once per suite: test_tensor.py's test_every_primitive
# checks every differentiable primitive at seeds 0-19, and test_training.py's
# test_full_loss_grad_check the full objective at seeds 0-2.
FULL_OBJECTIVE_SEEDS = range(3, 20)


def test_criterion_2_gradient_suite():
    worst = max(full_loss_grad_error(seed) for seed in FULL_OBJECTIVE_SEEDS)
    report("2 gradient suite", worst < 1e-4,
           f"full objective, seeds 3-19 (primitives 0-19 and seeds 0-2 run in the "
           f"unit tests); worst error {worst:.2e}")


# -- 3 ----------------------------------------------------------------------


def test_criterion_3a_round_trip_lossless():
    from maecodec.rangecoder import rc_decode, rc_encode

    cases = 0
    for seed in range(10_000):
        r = np.random.default_rng(seed)
        table = random_table(r, int(r.integers(2, 64)))
        n = int(r.integers(0, 120)) if seed % 100 else int(r.integers(0, 8000))
        syms = r.integers(0, table.num_symbols, size=n)
        payload = rc_encode(syms, [table] * n)
        assert np.array_equal(rc_decode(payload, [table] * n, n), syms), f"seed {seed}"
        cases += 1
    report("3a coding round trip", cases == 10_000, f"{cases} random cases lossless")


def test_criterion_3b_payload_within_entropy_bound(desk_paths, desk_eval_images):
    codec = _codec(desk_paths, ("mae", None, 0))
    tables = codec.tables()
    checked = 0
    worst_over = 0.0
    for img in desk_eval_images:
        for idx in range(len(desk.LAMBDAS)):
            if checked == 50:
                break
            q = quantize(codec.latent(img, desk.LAMBDAS[idx]))
            payload_bits = (len(compress_image(codec, img, idx)) - HEADER_SIZE) * 8
            cross_entropy = sum(
                tables[ch].bits_for(q[ch].ravel() + tables[ch].offset)
                for ch in range(q.shape[0]))
            assert cross_entropy <= payload_bits <= cross_entropy + 64, \
                f"payload {payload_bits} vs cross-entropy {cross_entropy:.1f}"
            worst_over = max(worst_over, payload_bits - cross_entropy)
            checked += 1
    report("3b payload length bound", checked == 50,
           f"50 desk latents, worst overhead {worst_over:.1f} bits <= 64")


def test_criterion_3c_container_identity_and_golden_bytes():
    from maecodec.entropy import CdfTable
    from maecodec.rangecoder import pack, unpack

    r = np.random.default_rng(0)
    table = CdfTable(random_table(r, 257).cum, offset=128)
    q = r.integers(-100, 100, size=(8, 5, 7)).astype(np.int32)
    meta = {"width": 333, "height": 222, "lambda_index": 1,
            "model_hash": 0x0123456789ABCDEF}
    bits = pack(q, meta, [table] * 8)
    q2, meta2 = unpack(Bitstream.from_bytes(bits.to_bytes()), [table] * 8)
    identity = np.array_equal(q, q2) and meta2["width"] == 333 \
        and meta2["model_hash"] == meta["model_hash"]

    golden = Bitstream(width=0x0102, height=0x0304, lambda_index=5, channels=0x0607,
                       latent_height=0x0809, latent_width=0x0A0B,
                       model_hash=0x1122334455667788, payload=b"\xAA\xBB")
    expected = (b"MAE1\x01\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b"
                b"\x11\x22\x33\x44\x55\x66\x77\x88\x00\x00\x00\x02\xAA\xBB")
    report("3c container identity + golden header",
           identity and bits.to_bytes()[:HEADER_SIZE] == bits.to_bytes()[:29]
           and golden.to_bytes() == expected and HEADER_SIZE == 29,
           "pack/unpack identity; 29-byte big-endian header matches golden bytes")


# -- 4 ----------------------------------------------------------------------


def test_criterion_4_entropy_estimate_fidelity(desk_paths, desk_eval_images):
    codec = _codec(desk_paths, ("mae", None, 0))
    details = []
    ok = True
    for idx, lam in enumerate(desk.LAMBDAS):
        est_total = 0.0
        actual_total = 0.0
        for i, img in enumerate(desk_eval_images):
            z = codec.latent(img, lam)
            noise_rng = np.random.default_rng([4, idx, i])
            z_tilde = z + noise_rng.uniform(-0.5, 0.5, size=z.shape)
            est_total += rate_bits(T.Tensor(z_tilde[None].astype(np.float64)),
                                   codec.model.density).item()
            actual_total += (len(compress_image(codec, img, idx)) - HEADER_SIZE) * 8
        rel = abs(est_total - actual_total) / actual_total
        details.append(f"lam={lam:g}: {rel:.2%}")
        ok = ok and rel < 0.05
    report("4 entropy-estimate fidelity", ok,
           "noise-proxy estimate vs coded bits over 20 images, " + ", ".join(details))


# -- 5 ----------------------------------------------------------------------


def _mean_rd(codec, images, idx):
    pts = [evaluate_image(codec, img, idx) for img in images]
    return (float(np.mean([p.bpp for p in pts])),
            float(np.mean([p.psnr_db for p in pts])))


def _psnr_monotone_in_bpp(points):
    ordered = sorted(points)
    return all(a[1] <= b[1] + 1e-9 for a, b in zip(ordered, ordered[1:]))


@pytest.fixture(scope="session")
def desk_rd_points(desk_paths, desk_eval_images):
    """(seed -> method -> list of (bpp, psnr) per tradeoff index)."""
    table = {}
    for seed in desk.SEEDS:
        mae = _codec(desk_paths, ("mae", None, seed))
        bottleneck = _codec(desk_paths, ("bottleneck", None, seed))
        independents = [_codec(desk_paths, ("independent", i, seed))
                        for i in range(len(desk.LAMBDAS))]
        table[seed] = {
            "mae": [_mean_rd(mae, desk_eval_images, i) for i in range(len(desk.LAMBDAS))],
            "bottleneck": [_mean_rd(bottleneck, desk_eval_images, i)
                           for i in range(len(desk.LAMBDAS))],
            "independent": [_mean_rd(independents[i], desk_eval_images, i)
                            for i in range(len(desk.LAMBDAS))],
        }
        for method, pts in table[seed].items():
            pretty = " ".join(f"({b:.4f}bpp,{p:.2f}dB)" for b, p in pts)
            print(f"[desk rd] seed={seed} {method:12s} {pretty}", flush=True)
    return table


def test_criterion_5_rd_behavior(desk_rd_points):
    passing = []
    for seed, methods in desk_rd_points.items():
        monotone = all(_psnr_monotone_in_bpp(pts) for pts in methods.values())
        narrower = min(b for b, _ in methods["bottleneck"]) \
            > min(b for b, _ in methods["mae"])
        gap_ok = methods["mae"][0][1] >= methods["bottleneck"][0][1]
        print(f"[desk rd] seed={seed} monotone={monotone} "
              f"narrower-range={narrower} low-rate-gap-order={gap_ok}", flush=True)
        passing.append(monotone and narrower and gap_ok)
    report("5 desk R-D reproduction", sum(passing) >= 2,
           f"(a) monotone, (b) bottleneck min bpp > mae min bpp, "
           f"(c) psnr_mae >= psnr_bottleneck at lam=64; seeds passing: "
           f"{sum(passing)}/3")


def test_criterion_5_training_progress(desk_paths):
    """Loss at iteration 5000 beats loss at iteration 100 for every
    tradeoff, median over the three seeds (fixed evaluation batches).
    Iteration 100 falls in the top-tradeoff phase, modulation networks
    still at their initialization."""
    from maecodec.training import next_batch

    images = desk.training_images()
    medians = {}
    for lam_idx, lam in enumerate(desk.LAMBDAS):
        ratios = []
        for seed in desk.SEEDS:
            early = LoadedCodec(Checkpoint.load(desk_paths[("mae", None, seed)][100]))
            late = _codec(desk_paths, ("mae", None, seed))
            losses = {}
            for tag, codec in (("early", early), ("late", late)):
                total = 0.0
                for rep in range(4):
                    rng = np.random.default_rng([555, lam_idx, rep])
                    batch = next_batch(images, desk.CROP, desk.BATCH, rng)
                    loss, _, _ = rd_terms(batch, lam, codec.model, noise_rng=rng)
                    total += loss.item()
                losses[tag] = total
            ratios.append(losses["late"] / losses["early"])
        medians[lam] = float(np.median(ratios))
    ok = all(v < 1.0 for v in medians.values())
    report("5+ training progress", ok,
           "median late/early loss " + ", ".join(f"lam={k:g}: {v:.3f}"
                                                 for k, v in medians.items()))


# -- 6 ----------------------------------------------------------------------


def test_criterion_6_feature_ratio_diagnostic(desk_paths, desk_eval_images):
    probe = desk_eval_images[0]
    mae = _codec(desk_paths, ("mae", None, 0))
    mae_report = feature_ratio(mae, probe, 4096.0, 64.0)
    mae_vars = [v for (_, _, v) in mae_report["stats"]]
    varying = sum(v > 1e-10 for v in mae_vars)

    bottleneck = _codec(desk_paths, ("bottleneck", None, 0))
    bn_report = feature_ratio(bottleneck, probe, 4096.0, 64.0)
    bn_vars = [v for (_, _, v) in bn_report["stats"]]
    constant = sum(v < 1e-10 for v in bn_vars)

    report("6 feature-ratio diagnostic",
           varying >= len(mae_vars) / 2 and constant == len(bn_vars),
           f"mae: {varying}/{len(mae_vars)} channels spatially varying; "
           f"bottleneck: {constant}/{len(bn_vars)} channels constant "
           f"(max var {max(bn_vars):.2e})")


# -- 7 ----------------------------------------------------------------------


def test_criterion_7_identity_reductions(tmp_path):
    rng = np.random.default_rng(0)
    config = CodecConfig(channels=16, mod_hidden=10)
    tr = TradeoffSet((64.0, 512.0, 4096.0))

    mae = CodecModel(config, tr, "mae", seed=11)
    plain = CodecModel(config, tr, "plain", seed=11)
    for net in mae.mod_nets + mae.demod_nets:
        net.w2.data[:] = 0.0
        net.b2.data[:] = 0.0
    x = T.Tensor(rng.random((1, 3, 48, 48)).astype(np.float32))
    z_mae, z_plain = mae.encode(x, 4096.0), plain.encode(x, 4096.0)
    forward_identical = np.array_equal(z_mae.data, z_plain.data) and np.array_equal(
        mae.decode(z_mae, 4096.0).data, plain.decode(z_plain, 4096.0).data)

    cfg = TrainingConfig(mode="mae", channels=16, mod_hidden=10, crop_size=32,
                         batch_size=2, total_iters=0, halve_at=0, phase2_iters=0,
                         lambdas=(64.0, 512.0, 4096.0), seed=5)
    from maecodec.synthetic import make_corpus

    zero_iter = train(cfg, make_corpus(1, 32, 32))[-1][1]
    init = snapshot(CodecModel(cfg.codec_config, cfg.tradeoffs, "mae", seed=5), 0)
    zero_iter_identical = zero_iter.to_bytes() == init.to_bytes()

    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    init.save(p1)
    Checkpoint.load(p1).save(p2)
    save_load_identical = p1.read_bytes() == p2.read_bytes()

    report("7 identity reductions",
           forward_identical and zero_iter_identical and save_load_identical,
           f"all-ones modulation bit-exact: {forward_identical}; "
           f"zero-iteration training returns init: {zero_iter_identical}; "
           f"save/load/save bytes identical: {save_load_identical}")
