"""Command-line surface: train, compress, decompress, inspect, evaluate,
rd-curve, inspect-ratio, param-count.

Exit status 0 on success, 1 with a one-line ``error: ...`` message on any
codec failure, 2 for usage problems (argparse's convention).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .exceptions import MaecodecError


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="maecodec",
        description="Variable-rate learned image codec with a tradeoff-modulated autoencoder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a codec and write a checkpoint")
    train.add_argument("--config", required=True,
                       help="key=value training config file, or 'default'")
    train.add_argument("--images", required=True, help="directory of training images")
    train.add_argument("--output", required=True, help="checkpoint path to write")
    train.add_argument("--seed", type=int, default=None, help="override the config seed")

    comp = sub.add_parser("compress", help="image file -> .mae bitstream")
    comp.add_argument("--checkpoint", required=True)
    comp.add_argument("--input", required=True)
    comp.add_argument("--output", required=True)
    comp.add_argument("--lambda-index", type=int, required=True)

    dec = sub.add_parser("decompress", help=".mae bitstream -> image file")
    dec.add_argument("--checkpoint", required=True)
    dec.add_argument("--input", required=True)
    dec.add_argument("--output", required=True)

    ins = sub.add_parser("inspect",
                         help="a .mae file's header, payload bits and coder overhead")
    ins.add_argument("file", help=".mae bitstream")
    ins.add_argument("--checkpoint", required=True, help="the checkpoint that wrote it")

    ev = sub.add_parser("evaluate", help="bpp/PSNR/MS-SSIM of one checkpoint over images")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--images", required=True)
    ev.add_argument("--lambda-index", type=int, default=None,
                    help="restrict to one tradeoff (default: every one the checkpoint serves)")
    ev.add_argument("--output", default=None, help="write CSV here instead of stdout")

    curve = sub.add_parser("rd-curve", help="rate-distortion CSV over several checkpoints")
    curve.add_argument("--checkpoint", required=True, action="append",
                       help="checkpoint path; repeat or comma-separate for several")
    curve.add_argument("--images", required=True)
    curve.add_argument("--output", required=True)

    ratio = sub.add_parser("inspect-ratio",
                           help="per-channel latent ratio maps between two tradeoffs")
    ratio.add_argument("--checkpoint", required=True)
    ratio.add_argument("--input", required=True, help="probe image")
    ratio.add_argument("--lambda-index", required=True,
                       help="pair 'a,b' of tradeoff indices, e.g. '2,0'")
    ratio.add_argument("--channels", default=None,
                       help="comma-separated channel list (default: all)")
    ratio.add_argument("--output", required=True, help="directory for PGM maps")

    pc = sub.add_parser("param-count", help="per-component parameter counts")
    pc.add_argument("--config", default="default",
                    help="training config file or 'default' (192 channels)")
    pc.add_argument("--channels", type=int, default=None, help="override channel count")

    return parser


def _cmd_train(args):
    from dataclasses import replace

    from .training import load_training_config, train, TrainingConfig

    config = TrainingConfig() if args.config == "default" else load_training_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    series = train(config, args.images, log_path=str(out) + ".log.csv")
    for iteration, ckpt in series[:-1]:
        ckpt.save(out.with_name(f"{out.stem}_iter{iteration:06d}{out.suffix}"))
    series[-1][1].save(out)
    print(f"trained {config.mode} for {series[-1][0]} iterations -> {out}")
    return 0


def _cmd_compress(args):
    from .codec import compress

    nbytes = compress(args.input, args.output, args.checkpoint, args.lambda_index)
    print(f"wrote {nbytes} bytes -> {args.output}")
    return 0


def _cmd_decompress(args):
    from .codec import decompress

    decompress(args.input, args.output, args.checkpoint)
    print(f"decoded -> {args.output}")
    return 0


def _cmd_inspect(args):
    from .codec import LoadedCodec, inspect_stream
    from .rangecoder import OVERHEAD_BOUND_BITS

    report = inspect_stream(LoadedCodec(args.checkpoint), Path(args.file).read_bytes())
    bits = report["bitstream"]
    print(f"image {bits.height}x{bits.width}, lambda_index {bits.lambda_index} "
          f"(lambda {report['lam']:g}), {bits.channels} channels of "
          f"{bits.latent_height}x{bits.latent_width}, model_hash {bits.model_hash:016x}")
    print(f"payload {len(bits.payload)} bytes = {report['payload_bits']} bits")
    print("channel,cross_entropy_bits")
    for c, channel_bits in enumerate(report["channel_bits"]):
        print(f"{c},{channel_bits:.2f}")
    print(f"cross-entropy {sum(report['channel_bits']):.2f} bits, coder overhead "
          f"{report['overhead_bits']:.2f} bits (bound {OVERHEAD_BOUND_BITS})")
    return 0


def _print_points(points, output):
    from .codec import rd_rows, write_rd_csv

    if output:
        write_rd_csv(output, points)
        print(f"wrote {len(points)} rows -> {output}")
    else:
        for row in rd_rows(points):
            print(",".join(row))


def _cmd_evaluate(args):
    from .codec import LoadedCodec, mean_point, operating_points, served_indices
    from .training import load_dataset

    codec = LoadedCodec(args.checkpoint)
    if args.lambda_index is None:
        indices = operating_points(codec)
    elif args.lambda_index in served_indices(codec):
        indices = [args.lambda_index]
    else:
        raise MaecodecError(
            f"--lambda-index {args.lambda_index} is not a tradeoff this checkpoint serves "
            f"(it serves {served_indices(codec)})")
    images = load_dataset(args.images)
    _print_points([mean_point(codec, images, idx) for idx in indices], args.output)
    return 0


def _cmd_rd_curve(args):
    from .codec import rd_curve

    paths = []
    for entry in args.checkpoint:
        paths.extend(p for p in entry.split(",") if p)
    points = rd_curve(paths, args.images)
    _print_points(points, args.output)
    return 0


def _cmd_inspect_ratio(args):
    from .codec import feature_ratio, write_ratio_maps
    from .image_io import read_image
    from .checkpoint import Checkpoint

    try:
        idx_a, idx_b = (int(v) for v in args.lambda_index.split(","))
    except ValueError as exc:
        raise MaecodecError(f"--lambda-index must be 'a,b', got {args.lambda_index!r}") from exc
    channels = None
    if args.channels:
        try:
            channels = [int(v) for v in args.channels.split(",")]
        except ValueError as exc:
            raise MaecodecError(
                f"--channels must be comma-separated channel indices, got {args.channels!r}"
            ) from exc
    checkpoint = Checkpoint.load(args.checkpoint)
    lams = checkpoint.lambdas
    if not (0 <= idx_a < len(lams) and 0 <= idx_b < len(lams)):
        raise MaecodecError(
            f"--lambda-index {args.lambda_index} out of range for {len(lams)} tradeoffs")
    report = feature_ratio(checkpoint, read_image(args.input), lams[idx_a], lams[idx_b], channels)
    paths = write_ratio_maps(args.output, report)
    print("channel,min,max,variance")
    for ch, (lo, hi, var) in zip(report["channels"], report["stats"]):
        print(f"{ch},{lo:.6g},{hi:.6g},{var:.6g}")
    print(f"wrote {len(paths)} maps -> {args.output}")
    return 0


def _cmd_param_count(args):
    from .network import CodecConfig, param_count
    from .training import load_training_config

    config = (CodecConfig() if args.config == "default"
              else load_training_config(args.config).codec_config)
    if args.channels is not None:
        config = CodecConfig(channels=args.channels, mod_hidden=config.mod_hidden)
    counts = param_count(config)
    for key in ("shared", "modulation", "scaling"):
        print(f"{key:12s} {counts[key]:>12,d}")
    print(f"{'mae_total':12s} {counts['mae_total']:>12,d}")
    print(f"{'independent':12s} {counts['independent_total']:>12,d}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "inspect": _cmd_inspect,
    "evaluate": _cmd_evaluate,
    "rd-curve": _cmd_rd_curve,
    "inspect-ratio": _cmd_inspect_ratio,
    "param-count": _cmd_param_count,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except MaecodecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a missing file, a directory, no permission
        where = f": {exc.filename}" if exc.filename else ""
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
