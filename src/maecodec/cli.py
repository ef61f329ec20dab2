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


_REQUIRED = {"required": True}

# command -> (handler, help line, ((flag, add_argument options), ...))
_COMMANDS = {
    "train": (_cmd_train, "train a codec and write a checkpoint", (
        ("--config", dict(required=True, help="key=value training config file, or 'default'")),
        ("--images", dict(required=True, help="directory of training images")),
        ("--output", dict(required=True, help="checkpoint path to write")),
        ("--seed", dict(type=int, help="override the config seed")))),
    "compress": (_cmd_compress, "image file -> .mae bitstream", (
        ("--checkpoint", _REQUIRED),
        ("--input", _REQUIRED),
        ("--output", _REQUIRED),
        ("--lambda-index", dict(type=int, required=True)))),
    "decompress": (_cmd_decompress, ".mae bitstream -> image file", (
        ("--checkpoint", _REQUIRED),
        ("--input", _REQUIRED),
        ("--output", _REQUIRED))),
    "inspect": (_cmd_inspect, "a .mae file's header, payload bits and coder overhead", (
        ("file", dict(help=".mae bitstream")),
        ("--checkpoint", dict(required=True, help="the checkpoint that wrote it")))),
    "evaluate": (_cmd_evaluate, "bpp/PSNR/MS-SSIM of one checkpoint over images", (
        ("--checkpoint", _REQUIRED),
        ("--images", _REQUIRED),
        ("--lambda-index", dict(
            type=int, help="restrict to one tradeoff (default: every one the checkpoint serves)")),
        ("--output", dict(help="write CSV here instead of stdout")))),
    "rd-curve": (_cmd_rd_curve, "rate-distortion CSV over several checkpoints", (
        ("--checkpoint", dict(required=True, action="append",
                              help="checkpoint path; repeat or comma-separate for several")),
        ("--images", _REQUIRED),
        ("--output", _REQUIRED))),
    "inspect-ratio": (_cmd_inspect_ratio, "per-channel latent ratio maps between two tradeoffs", (
        ("--checkpoint", _REQUIRED),
        ("--input", dict(required=True, help="probe image")),
        ("--lambda-index", dict(required=True,
                                help="pair 'a,b' of tradeoff indices, e.g. '2,0'")),
        ("--channels", dict(help="comma-separated channel list (default: all)")),
        ("--output", dict(required=True, help="directory for PGM maps")))),
    "param-count": (_cmd_param_count, "per-component parameter counts", (
        ("--config", dict(default="default",
                          help="training config file or 'default' (192 channels)")),
        ("--channels", dict(type=int, help="override channel count")))),
}


def _build_parser(argv):
    """The top-level parser with the subparser of the command ``argv[0]``
    names, or with all eight when it names none (no command, --help, an
    unknown name), whose usage, help and error texts list them all."""
    parser = argparse.ArgumentParser(
        prog="maecodec",
        description="Variable-rate learned image codec with a tradeoff-modulated autoencoder.",
    )
    names = [argv[0]] if argv and argv[0] in _COMMANDS else list(_COMMANDS)
    # with one subparser built, the usage line still lists every command; with
    # all built, argparse writes that list itself and names the argument
    # "command" in its errors, as a metavar would not
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        _, help_line, arguments = _COMMANDS[name]
        command = sub.add_parser(name, help=help_line)
        for flag, options in arguments:
            command.add_argument(flag, **options)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except MaecodecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a missing file, a directory, no permission
        where = f": {exc.filename}" if exc.filename else ""
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
