"""File-level codec pipeline and evaluation tools.

compress: pad to a multiple of 16 (edge replication), run the encoder at
the requested tradeoff, round, range-code against the checkpoint's CDF
tables, and wrap everything in the .mae container.  decompress inverts
each step and crops back to the header dimensions.  Both directions are
fully deterministic given the checkpoint.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import Checkpoint, model_from_checkpoint
from .entropy import build_cdf_tables, choose_support, quantize
from .exceptions import BitstreamError, ContractViolation, ModelHashMismatch
from .image_io import read_image, write_image, write_pgm
from .metrics import ms_ssim, ms_ssim_db, psnr
from .network import DOWNSAMPLE
from .rangecoder import Bitstream, pack, unpack
from .training import NETWORK_MODES


# Largest image, in pixels, the codec compresses or decompresses (2048 x
# 2048).  The header's 16-bit sides would let a 2 KB file declare
# 65535 x 65535 pixels, and the decoder then allocate a ~51 GB synthesis
# canvas; at this budget a 32-channel decode peaks at about 450 MB.
MAX_PIXELS = 1 << 22


@dataclass(frozen=True)
class RdPoint:
    """One operating point of a rate-distortion curve."""

    method: str
    lam: float
    bpp: float
    psnr_db: float
    msssim_db: float


class LoadedCodec:
    """A checkpoint made runnable: model, hash, and coding tables."""

    def __init__(self, checkpoint, dtype=np.float32):
        if isinstance(checkpoint, (str, Path)):
            checkpoint = Checkpoint.load(checkpoint)
        self.checkpoint = checkpoint
        self.model = model_from_checkpoint(checkpoint, dtype=dtype)
        self.model_hash = checkpoint.model_hash
        self._tables = None

    @property
    def tradeoffs(self):
        return self.model.tradeoffs

    def tables(self):
        """CDF tables derived deterministically from the entropy model;
        identical on the encoder and decoder side by construction."""
        if self._tables is None:
            density = self.model.density
            self._tables = build_cdf_tables(density, choose_support(density))
        return self._tables

    def latent(self, image_hwc, lam):
        """Bottleneck feature right before quantization, as an ndarray."""
        x = T.Tensor(_pad_to_multiple(image_hwc).transpose(2, 0, 1)[None].astype(self.model.dtype))
        return self.model.encode(x, lam).data[0]


def _pad_to_multiple(image_hwc):
    """Replicate the bottom/right edges until the sides divide DOWNSAMPLE."""
    h, w = image_hwc.shape[:2]
    pad_h = (-h) % DOWNSAMPLE
    pad_w = (-w) % DOWNSAMPLE
    if pad_h == 0 and pad_w == 0:
        return image_hwc
    return np.pad(image_hwc, ((0, pad_h), (0, pad_w), (0, 0)), mode="edge")


def compress_image(codec, image_hwc, lambda_index):
    """Float (H, W, 3) image in [0, 1] -> .mae container bytes."""
    served = served_indices(codec)
    if lambda_index not in served:
        raise ContractViolation(
            f"lambda index {lambda_index} is not a tradeoff this checkpoint serves "
            f"(it serves {served})")
    h, w = image_hwc.shape[:2]
    if h * w > MAX_PIXELS:
        raise ContractViolation(
            f"{h}x{w} image exceeds the codec's budget of {MAX_PIXELS} pixels")
    q = quantize(codec.latent(image_hwc, codec.tradeoffs.lambdas[lambda_index]))
    meta = {"width": w, "height": h, "lambda_index": lambda_index,
            "model_hash": codec.model_hash}
    return pack(q, meta, codec.tables()).to_bytes()


def _checked_bitstream(codec, data):
    """Parse a .mae container and check its header against ``codec``."""
    bits = Bitstream.from_bytes(data)
    if bits.model_hash != codec.model_hash:
        raise ModelHashMismatch(
            f"bitstream was made with checkpoint {bits.model_hash:016x}, "
            f"decoder has {codec.model_hash:016x}"
        )
    served = served_indices(codec)
    if bits.lambda_index not in served:
        raise BitstreamError(
            f"lambda index {bits.lambda_index} is not a tradeoff this checkpoint serves "
            f"(it serves {served})")
    if bits.height == 0 or bits.width == 0:
        raise BitstreamError(
            f"{bits.height}x{bits.width} image: image sides must be positive")
    if bits.height * bits.width > MAX_PIXELS:
        raise BitstreamError(
            f"{bits.height}x{bits.width} image exceeds the codec's budget of "
            f"{MAX_PIXELS} pixels")
    latent_size = (-(-bits.height // DOWNSAMPLE), -(-bits.width // DOWNSAMPLE))
    if (bits.latent_height, bits.latent_width) != latent_size:
        raise BitstreamError(
            f"latent {bits.latent_height}x{bits.latent_width} does not fit a "
            f"{bits.height}x{bits.width} image, expected {latent_size[0]}x{latent_size[1]}")
    return bits


def decompress_image(codec, data):
    """.mae container bytes -> float32 (H, W, 3) image in [0, 1]."""
    q, meta = unpack(_checked_bitstream(codec, data), codec.tables())
    z = T.Tensor(q[None].astype(codec.model.dtype))
    x_hat = codec.model.decode(z, codec.tradeoffs.lambdas[meta["lambda_index"]], clamp=True)
    full = x_hat.data[0].transpose(1, 2, 0)
    return np.ascontiguousarray(full[: meta["height"], : meta["width"]]).astype(np.float32)


def compress(input_path, output_path, checkpoint, lambda_index):
    """File-to-file compression; returns the written Bitstream byte count."""
    codec = checkpoint if isinstance(checkpoint, LoadedCodec) else LoadedCodec(checkpoint)
    image = read_image(input_path)
    data = compress_image(codec, image, lambda_index)
    Path(output_path).write_bytes(data)
    return len(data)


def decompress(input_path, output_path, checkpoint):
    """File-to-file decompression; returns the reconstructed image."""
    codec = checkpoint if isinstance(checkpoint, LoadedCodec) else LoadedCodec(checkpoint)
    image = decompress_image(codec, Path(input_path).read_bytes())
    write_image(output_path, image)
    return image


def inspect_stream(codec, data):
    """Where a .mae file's bits go: its header, its payload size, each
    channel's table cross-entropy (the decoded run under its CDF table)
    and the coder's overhead over their sum."""
    bits = _checked_bitstream(codec, data)
    tables = codec.tables()
    q, _ = unpack(bits, tables)
    channel_bits = [table.bits_for(q[c].ravel() + table.offset)
                    for c, table in enumerate(tables)]
    payload_bits = 8 * len(bits.payload)
    return {"bitstream": bits, "lam": codec.tradeoffs.lambdas[bits.lambda_index],
            "payload_bits": payload_bits, "channel_bits": channel_bits,
            "overhead_bits": payload_bits - sum(channel_bits)}


# ---------------------------------------------------------------------------
# evaluation


def evaluate_image(codec, image_hwc, lambda_index):
    """Round-trip one image through real coding; returns an RdPoint."""
    data = compress_image(codec, image_hwc, lambda_index)
    recon = decompress_image(codec, data)
    pixels = image_hwc.shape[0] * image_hwc.shape[1]
    return RdPoint(
        method=method_name(codec.model.mode),
        lam=codec.tradeoffs.lambdas[lambda_index],
        bpp=len(data) * 8.0 / pixels,
        psnr_db=psnr(image_hwc, recon),
        msssim_db=ms_ssim_db(ms_ssim(image_hwc, recon)),
    )


_METHODS = {mode: method for method, mode in NETWORK_MODES.items()}


def method_name(mode):
    """The training method that produces a network of ``mode``."""
    return _METHODS.get(mode, mode)


def operating_points(codec):
    """The tradeoff indices a checkpoint serves: a "plain" checkpoint its
    recorded trained tradeoff (several of them form the independent-models
    curve), "mae" and "bottleneck" checkpoints every index of their set."""
    if codec.model.mode != "plain":
        return list(range(len(codec.tradeoffs)))
    if codec.checkpoint.lambda_index is None:
        raise ContractViolation("independent checkpoint does not record its trained tradeoff")
    return [codec.checkpoint.lambda_index]


def served_indices(codec):
    """The tradeoff indices ``codec`` codes at: its operating_points, or
    every index of its set for an independent checkpoint that records no
    trained tradeoff."""
    if codec.model.mode == "plain" and codec.checkpoint.lambda_index is None:
        return list(range(len(codec.tradeoffs)))
    return operating_points(codec)


def mean_point(codec, images, idx):
    """Tradeoff ``idx``'s operating point, averaged over ``images``."""
    points = [evaluate_image(codec, img, idx) for img in images]
    return RdPoint(
        method=points[0].method,
        lam=points[0].lam,
        bpp=float(np.mean([p.bpp for p in points])),
        psnr_db=float(np.mean([p.psnr_db for p in points])),
        msssim_db=float(np.mean([p.msssim_db for p in points])),
    )


def rd_curve(checkpoints, images):
    """Mean operating points for one or more trained methods.

    ``checkpoints`` is a list of Checkpoint/LoadedCodec/paths; each
    contributes one point per index of operating_points.  ``images`` is a
    list of float (H, W, 3) arrays or a directory.  Rows come back sorted
    by (method, bpp ascending).
    """
    if not checkpoints:
        raise ContractViolation("rd_curve needs at least one checkpoint")
    if isinstance(images, (str, Path)):
        from .training import load_dataset

        images = load_dataset(images)
    if not images:
        raise ContractViolation("rd_curve needs at least one image")

    points = []
    for entry in checkpoints:
        codec = entry if isinstance(entry, LoadedCodec) else LoadedCodec(entry)
        points += [mean_point(codec, images, idx) for idx in operating_points(codec)]
    points.sort(key=lambda p: (p.method, p.bpp))
    return points


CSV_HEADER = ("method", "lambda", "bpp", "psnr_db", "msssim_db")


def rd_rows(points):
    """The CSV header and one formatted row per point."""
    return [CSV_HEADER] + [(p.method, f"{p.lam:g}", f"{p.bpp:.6f}", f"{p.psnr_db:.4f}",
                            f"{p.msssim_db:.4f}") for p in points]


def write_rd_csv(path, points):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rd_rows(points))


# ---------------------------------------------------------------------------
# feature-ratio diagnostics


def feature_ratio(checkpoint, image_hwc, lam_a, lam_b, channels=None):
    """Elementwise ratio of bottleneck features at two tradeoffs.

    Returns a dict with per-channel ratio maps and (min, max, spatial
    variance) statistics.  Sites where the denominator feature is within
    1e-6 of zero are masked out of the statistics (and rendered mid-
    gray in the maps).  Channel-wise scalar scaling yields variance ~0;
    a modulated autoencoder generally does not.
    """
    if isinstance(checkpoint, LoadedCodec):
        checkpoint = checkpoint.checkpoint
    codec = LoadedCodec(checkpoint, dtype=np.float64)  # variance needs headroom
    z_a = codec.latent(image_hwc, lam_a)
    z_b = codec.latent(image_hwc, lam_b)
    total = z_a.shape[0]
    if channels is None:
        channels = range(total)
    result = {"channels": [], "ratio_maps": [], "stats": []}
    for ch in channels:
        ch = int(ch)
        if not 0 <= ch < total:
            raise ContractViolation(f"channel {ch} out of range [0, {total})")
        if ch in result["channels"]:
            raise ContractViolation(f"channel {ch} given more than once")
        num, den = z_a[ch], z_b[ch]
        valid = np.abs(den) > 1e-6
        ratio = np.where(valid, num / np.where(valid, den, 1.0), np.nan)
        if valid.any():
            vals = ratio[valid]
            stats = (float(vals.min()), float(vals.max()), float(vals.var()))
        else:
            stats = (float("nan"), float("nan"), 0.0)
        result["channels"].append(ch)
        result["ratio_maps"].append(ratio)
        result["stats"].append(stats)
    return result


def ratio_map_to_gray(ratio):
    """Normalize a ratio map to [0, 1] for PGM output; NaNs render 0.5."""
    valid = np.isfinite(ratio)
    if not valid.any():
        return np.full(ratio.shape, 0.5)
    lo, hi = ratio[valid].min(), ratio[valid].max()
    span = hi - lo
    gray = np.full(ratio.shape, 0.5)
    gray[valid] = 0.0 if span == 0 else (ratio[valid] - lo) / span
    return gray


def write_ratio_maps(directory, report):
    """One grayscale PGM per requested channel; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for ch, ratio in zip(report["channels"], report["ratio_maps"]):
        path = directory / f"ratio_ch{ch:03d}.pgm"
        write_pgm(path, ratio_map_to_gray(ratio))
        paths.append(path)
    return paths
