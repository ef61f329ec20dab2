"""File-level codec: padding policy, deterministic bitstreams, bpp
accounting, hash guarding, R-D curve output, and feature-ratio maps."""

import tracemalloc

import numpy as np
import pytest

from maecodec.codec import (MAX_PIXELS, LoadedCodec, compress, compress_image, decompress,
                            decompress_image, evaluate_image, feature_ratio,
                            ratio_map_to_gray, rd_curve, write_rd_csv)
from maecodec.exceptions import BitstreamError, ContractViolation, ModelHashMismatch
from maecodec.image_io import read_image, read_ppm, write_ppm
from maecodec.network import CodecConfig, CodecModel, TradeoffSet
from maecodec.rangecoder import HEADER_SIZE, Bitstream
from maecodec.synthetic import make_corpus, make_image
from maecodec.training import TrainingConfig, snapshot, train

TR3 = TradeoffSet((64.0, 512.0, 4096.0))


@pytest.fixture(scope="module")
def trained():
    """One briefly trained desk model shared across this module."""
    cfg = TrainingConfig(mode="mae", channels=16, mod_hidden=10, crop_size=48,
                         batch_size=4, total_iters=100, halve_at=100, phase2_iters=25,
                         lambdas=(64.0, 512.0, 4096.0), seed=7)
    ckpt = train(cfg, make_corpus(6, 96, 96))[-1][1]
    return LoadedCodec(ckpt)


@pytest.fixture(scope="module")
def untrained_bottleneck():
    model = CodecModel(CodecConfig(channels=16, mod_hidden=10), TR3, "bottleneck", seed=0)
    model.parameters()["scale.64"].data[:] = 0.25
    model.parameters()["scale.512"].data[:] = 0.5
    return LoadedCodec(snapshot(model, 0))


class TestCompressDecompress:
    def test_round_trip_preserves_dimensions(self, trained):
        for h, w in ((64, 64), (100, 130), (192, 176), (48, 49)):
            img = make_image(50 + h + w, h, w)
            rec = decompress_image(trained, compress_image(trained, img, 1))
            assert rec.shape == img.shape

    def test_deterministic_bitstream(self, trained):
        img = make_image(51, 96, 96)
        assert compress_image(trained, img, 2) == compress_image(trained, img, 2)

    def test_padding_neutral_for_multiples_of_16(self, trained):
        img = make_image(52, 96, 112)
        bits = Bitstream.from_bytes(compress_image(trained, img, 0))
        assert bits.latent_height == 96 // 16 and bits.latent_width == 112 // 16

    def test_bpp_accounting_is_exact(self, trained):
        img = make_image(53, 96, 96)
        data = compress_image(trained, img, 1)
        point = evaluate_image(trained, img, 1)
        assert point.bpp * 96 * 96 / 8 == pytest.approx(len(data), abs=1e-9)

    def test_tradeoff_conditions_the_bitstream(self, trained):
        # bpp ordering across tradeoffs needs the full desk training run
        # (checked in the acceptance suite); here just verify the index
        # actually conditions the encoder output
        img = make_image(54, 96, 96)
        assert compress_image(trained, img, 0) != compress_image(trained, img, 2)

    def test_bad_lambda_index(self, trained):
        with pytest.raises(ContractViolation):
            compress_image(trained, make_image(55, 48, 48), 7)

    def test_hash_mismatch_rejected(self, trained):
        img = make_image(56, 48, 48)
        data = bytearray(compress_image(trained, img, 0))
        data[20] ^= 0xFF  # corrupt one model_hash byte
        with pytest.raises(ModelHashMismatch):
            decompress_image(trained, bytes(data))

    def test_bitstream_lambda_index_out_of_range(self, trained):
        bits = Bitstream.from_bytes(compress_image(trained, make_image(58, 48, 48), 0))
        bits.lambda_index = len(trained.tradeoffs)
        with pytest.raises(BitstreamError, match="lambda index 3"):
            decompress_image(trained, bits.to_bytes())

    def test_latent_size_must_fit_image_size(self, trained):
        bits = Bitstream.from_bytes(compress_image(trained, make_image(59, 64, 64), 0))
        bits.height = 1000  # the 4x4 latent would decode silently to 64x64
        with pytest.raises(BitstreamError, match="expected 63x4"):
            decompress_image(trained, bits.to_bytes())

    def test_oversized_header_rejected_before_allocating(self, trained):
        # a 2 KB file declaring 65535 x 65535 pixels: 4096 x 4096 latents
        # per channel, a ~51 GB synthesis canvas
        data = Bitstream(width=65535, height=65535, lambda_index=0,
                         channels=len(trained.tables()), latent_height=4096,
                         latent_width=4096, model_hash=trained.model_hash,
                         payload=bytes(2048)).to_bytes()
        tracemalloc.start()
        try:
            with pytest.raises(BitstreamError, match="budget of 4194304 pixels"):
                decompress_image(trained, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_pixel_budget_boundary(self, trained):
        bits = Bitstream.from_bytes(compress_image(trained, make_image(60, 64, 64), 0))
        bits.height, bits.width = 2048, MAX_PIXELS // 2048  # at the budget
        with pytest.raises(BitstreamError, match="expected 128x128"):
            decompress_image(trained, bits.to_bytes())
        bits.width += 1
        with pytest.raises(BitstreamError, match="budget"):
            decompress_image(trained, bits.to_bytes())
        # what the decoder refuses, the encoder does not write
        image = np.broadcast_to(np.float32(0.5), (2048, MAX_PIXELS // 2048 + 1, 3))
        with pytest.raises(ContractViolation, match="budget"):
            compress_image(trained, image, 0)

    def test_file_round_trip(self, trained, tmp_path):
        img = make_image(57, 80, 64)
        src = tmp_path / "in.ppm"
        write_ppm(src, img)
        ckpt_path = tmp_path / "m.ckpt"
        trained.checkpoint.save(ckpt_path)
        out = tmp_path / "out.mae"
        n = compress(src, out, ckpt_path, 1)
        assert out.stat().st_size == n
        rec_path = tmp_path / "rec.ppm"
        rec = decompress(out, rec_path, ckpt_path)
        assert rec.shape == (80, 64, 3)
        np.testing.assert_allclose(read_ppm(rec_path), rec, atol=1 / 255)


class TestRdCurve:
    def test_single_image_single_lambda(self, trained, tmp_path):
        model = CodecModel(CodecConfig(channels=16, mod_hidden=10), TR3, "plain", seed=1)
        ckpt = snapshot(model, 0, lambda_index=1)
        points = rd_curve([ckpt], [make_image(60, 64, 64)])
        assert len(points) == 1
        assert points[0].method == "independent" and points[0].lam == 512.0

    def test_rows_sorted_by_bpp_within_method(self, trained):
        points = rd_curve([trained], make_corpus(2, 96, 96, seed_base=400))
        bpps = [p.bpp for p in points]
        assert bpps == sorted(bpps)
        assert [p.method for p in points] == ["mae"] * 3

    def test_csv_schema(self, trained, tmp_path):
        points = rd_curve([trained], [make_image(61, 96, 96)])
        path = tmp_path / "curve.csv"
        write_rd_csv(path, points)
        lines = path.read_text().splitlines()
        assert lines[0] == "method,lambda,bpp,psnr_db,msssim_db"
        assert len(lines) == 4


class TestFeatureRatio:
    def test_same_tradeoff_gives_unit_ratio(self, trained):
        report = feature_ratio(trained, make_image(62, 64, 64), 4096.0, 4096.0)
        for (lo, hi, var) in report["stats"]:
            assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)
            assert var < 1e-20

    def test_bottleneck_ratio_is_channelwise_constant(self, untrained_bottleneck):
        report = feature_ratio(untrained_bottleneck, make_image(63, 64, 64), 4096.0, 64.0)
        for (lo, hi, var) in report["stats"]:
            assert var < 1e-10
            assert lo == pytest.approx(4.0, rel=1e-6)  # s=1 over s=0.25

    def test_trained_mae_ratio_varies_spatially(self, trained):
        report = feature_ratio(trained, make_image(64, 64, 64), 4096.0, 64.0)
        variances = [v for (_, _, v) in report["stats"]]
        assert sum(v > 1e-10 for v in variances) >= len(variances) / 2

    def test_channel_selection_and_bounds(self, trained):
        report = feature_ratio(trained, make_image(65, 64, 64), 4096.0, 64.0, channels=[0, 3])
        assert report["channels"] == [0, 3]
        with pytest.raises(ContractViolation):
            feature_ratio(trained, make_image(65, 64, 64), 4096.0, 64.0, channels=[99])

    def test_gray_map_range(self):
        ratio = np.array([[1.0, 2.0], [np.nan, 3.0]])
        gray = ratio_map_to_gray(ratio)
        assert gray.min() >= 0.0 and gray.max() <= 1.0
        assert gray[1, 0] == 0.5
