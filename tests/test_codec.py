"""File-level codec: padding policy, deterministic bitstreams, bpp
accounting, hash guarding, R-D curve output, and feature-ratio maps."""

import hashlib
import struct
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from maecodec import codec as codec_module
from maecodec.checkpoint import Checkpoint
from maecodec.codec import (MAX_PIXELS, LoadedCodec, compress, compress_image, decompress,
                            decompress_image, evaluate_image, feature_ratio, inspect_stream,
                            operating_points, ratio_map_to_gray, rd_curve, rd_rows,
                            write_rd_csv)
from maecodec.exceptions import (BitstreamError, ContractViolation, MaecodecError,
                                 ModelHashMismatch)
from maecodec.image_io import read_image, read_ppm, write_ppm
from maecodec.network import CodecConfig, CodecModel, TradeoffSet
from maecodec.rangecoder import HEADER_SIZE, Bitstream
from maecodec.synthetic import make_corpus, make_image
from maecodec.training import TrainingConfig, snapshot, train

TR3 = TradeoffSet((64.0, 512.0, 4096.0))
BENCH_CHECKPOINT = (Path(__file__).resolve().parents[1] / "benchmarks" / "data"
                    / "desk_mae32_seed0.ckpt")


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

    def test_zero_side_rejected_before_decoding(self, trained, monkeypatch):
        # a 0-pixel side fits a 0-row latent, and used to fail only in the
        # decoder network, after all tables and symbol lookups were built
        def no_decoding(*args):
            raise AssertionError("a stream with a zero side was decoded")

        monkeypatch.setattr(codec_module, "unpack", no_decoding)
        bits = Bitstream.from_bytes(compress_image(trained, make_image(61, 64, 64), 0))
        for height, width in ((0, 64), (64, 0)):
            bits.height, bits.width = height, width
            bits.latent_height, bits.latent_width = -(-height // 16), -(-width // 16)
            for read in (decompress_image, inspect_stream):
                with pytest.raises(BitstreamError, match="image sides must be positive"):
                    read(trained, bits.to_bytes())

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


class TestCodecBitsPinned:
    def test_benchmark_checkpoint_bits_pinned(self):
        # every bitstream and reconstruction of the benchmark's trained
        # checkpoint (32 channels) at three sizes and every tradeoff: a
        # refactor of the transforms, the entropy model or the coder that
        # claims the same bits fails here in a few seconds
        codec = LoadedCodec(Checkpoint.load(BENCH_CHECKPOINT))
        digest = hashlib.sha256()
        for seed, (h, w) in enumerate(((96, 96), (93, 99), (512, 512))):
            image = make_image(4000 + seed, h, w)
            for index in range(len(codec.tradeoffs.lambdas)):
                data = compress_image(codec, image, index)
                rec = decompress_image(codec, data)
                digest.update(data)
                digest.update(repr((rec.dtype.str, rec.shape)).encode())
                digest.update(rec.tobytes())
        assert digest.hexdigest() == \
            "7e4a45668ff2120b536e77bcdbfac16f85fcd13a7742cc672724fe7a0a41a481"

    def test_benchmark_checkpoint_hash_pinned(self):
        # its header holds exactly the keys to_bytes writes, so the strict
        # header check loads it, and to_bytes gives back its bytes
        assert Checkpoint.load(BENCH_CHECKPOINT).model_hash == 0x24964ADF06656AAD

    def test_evaluate_image_msssim_bits_pinned(self):
        codec = LoadedCodec(Checkpoint.load(BENCH_CHECKPOINT))
        point = evaluate_image(codec, make_image(93, 176, 176), 1)
        assert point.msssim_db.hex() == "0x1.126bd4990ae1dp+2"


class TestMutatedStreams:
    def test_seeded_mutation_fuzz(self, trained):
        """Flipped, inserted, deleted and truncated bytes, in the header and
        in the payload: each case ends in a MaecodecError or in an image of
        the header's shape with values in [0, 1], in bounded time and
        memory.  A range-coded payload has no checksum, so some mutations
        decode silently to a different image; their count is pinned."""
        rng = np.random.default_rng(2024)
        clean = [compress_image(trained, make_image(70 + k, 96, 80), k % 3) for k in range(3)]
        silent = errors = 0
        start = time.perf_counter()
        tracemalloc.start()
        try:
            for case in range(300):
                data = bytearray(clean[case % 3])
                lo, hi = (0, HEADER_SIZE) if case % 2 else (HEADER_SIZE, len(data))
                at = int(rng.integers(lo, hi))
                kind = case // 2 % 4
                if kind == 0:
                    data[at] ^= int(rng.integers(1, 256))
                elif kind == 1:
                    data.insert(at, int(rng.integers(0, 256)))
                elif kind == 2:
                    del data[at]
                else:
                    del data[at:]
                try:
                    image = decompress_image(trained, bytes(data))
                except MaecodecError:
                    errors += 1
                    continue
                bits = Bitstream.from_bytes(bytes(data))
                assert image.shape == (bits.height, bits.width, 3)
                assert np.all(np.isfinite(image)) and image.min() >= 0 and image.max() <= 1
                silent += 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        seconds = time.perf_counter() - start
        print(f"mutation fuzz: {silent} of 300 decode silently, {errors} raise; "
              f"{seconds:.1f} s, traced peak {peak / 2 ** 20:.1f} MB")
        assert (silent, errors) == (1, 299)
        assert seconds < 20 and peak < 16 * 2 ** 20


class TestMutatedCheckpoints:
    def test_seeded_mutation_fuzz(self):
        """Flipped, inserted, deleted and truncated bytes, in the header and
        in the parameter blocks of three tiny checkpoints: each case ends in
        a MaecodecError or in a LoadedCodec whose tables build, in bounded
        time and memory.  The blocks carry no checksum, so a flipped byte
        there loads as a different model; the counts are pinned."""
        rng = np.random.default_rng(2025)
        config, tradeoffs = CodecConfig(channels=4, mod_hidden=3), TradeoffSet((1.0, 2.0, 4.0))
        clean = [snapshot(CodecModel(config, tradeoffs, mode, seed=k), 0,
                          lambda_index=0 if mode == "plain" else None).to_bytes()
                 for k, mode in enumerate(("mae", "plain", "bottleneck"))]
        loaded = errors = 0
        start = time.perf_counter()
        tracemalloc.start()
        try:
            for case in range(600):
                data = bytearray(clean[case % 3])
                header_end = 9 + struct.unpack(">I", data[5:9])[0]
                lo, hi = (0, header_end) if case % 2 else (header_end, len(data))
                at = int(rng.integers(lo, hi))
                kind = case // 2 % 4
                if kind == 0:
                    data[at] ^= int(rng.integers(1, 256))
                elif kind == 1:
                    data.insert(at, int(rng.integers(0, 256)))
                elif kind == 2:
                    del data[at]
                else:
                    del data[at:]
                try:
                    codec = LoadedCodec(Checkpoint.from_bytes(bytes(data)))
                    tables = codec.tables()
                except MaecodecError:
                    errors += 1
                    continue
                assert len(tables) == codec.model.config.channels
                loaded += 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        seconds = time.perf_counter() - start
        print(f"checkpoint mutation fuzz: {loaded} of 600 load, {errors} raise; "
              f"{seconds:.1f} s, traced peak {peak / 2 ** 20:.1f} MB")
        # case 521 flips the header key "lambda_index" to "7ambda_index": an
        # unknown key, rejected since the header is read strictly
        assert (loaded, errors) == (75, 525)
        assert seconds < 20 and peak < 16 * 2 ** 20


class TestRdCurve:
    def test_single_image_single_lambda(self, trained, tmp_path):
        model = CodecModel(CodecConfig(channels=16, mod_hidden=10), TR3, "plain", seed=1)
        ckpt = snapshot(model, 0, lambda_index=1)
        points = rd_curve([ckpt], [make_image(60, 64, 64)])
        assert len(points) == 1
        assert points[0].method == "independent" and points[0].lam == 512.0

    def test_no_checkpoint(self):
        with pytest.raises(ContractViolation, match="at least one checkpoint"):
            rd_curve([], [make_image(60, 64, 64)])

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
        assert lines == [",".join(row) for row in rd_rows(points)]

    def test_operating_points(self, trained):
        assert operating_points(trained) == [0, 1, 2]
        model = CodecModel(CodecConfig(channels=16, mod_hidden=10), TR3, "plain", seed=1)
        assert operating_points(LoadedCodec(snapshot(model, 0, lambda_index=1))) == [1]
        unlabelled = LoadedCodec(snapshot(model, 0))
        with pytest.raises(ContractViolation, match="does not record"):
            operating_points(unlabelled)
        with pytest.raises(ContractViolation, match="does not record"):
            rd_curve([unlabelled], [make_image(60, 64, 64)])


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
