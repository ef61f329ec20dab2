"""Command-line surface: every subcommand, exit codes, and output formats."""

import struct

import numpy as np
import pytest

from maecodec.cli import main
from maecodec.image_io import write_ppm
from maecodec.network import CodecConfig, CodecModel, TradeoffSet
from maecodec.synthetic import make_corpus
from maecodec.training import snapshot


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    images = root / "imgs"
    images.mkdir()
    for i, img in enumerate(make_corpus(3, 96, 96)):
        write_ppm(images / f"img_{i}.ppm", img)
    cfg = root / "desk.cfg"
    cfg.write_text(
        "mode = mae\nchannels = 16\nmod_hidden = 10\ncrop_size = 48\n"
        "batch_size = 4\ntotal_iters = 40\nhalve_at = 30\nphase2_iters = 5\n"
        "lambdas = 64,512,4096\nseed = 2\n")
    ckpt = root / "model.ckpt"
    assert main(["train", "--config", str(cfg), "--images", str(images),
                 "--output", str(ckpt)]) == 0
    return root


def test_train_wrote_checkpoint_and_log(workspace):
    assert (workspace / "model.ckpt").exists()
    log = (workspace / "model.ckpt.log.csv").read_text().splitlines()
    assert log[0] == "iteration,lambda,rate_bpp,mse,loss,lr,ms"
    assert len(log) == 1 + 40 + 2 * 5  # header, top-tradeoff and joint iterations


def test_compress_decompress_cycle(workspace, capsys):
    ckpt = str(workspace / "model.ckpt")
    src = str(workspace / "imgs" / "img_0.ppm")
    mae = str(workspace / "x.mae")
    out = str(workspace / "x_rec.ppm")
    assert main(["compress", "--checkpoint", ckpt, "--input", src,
                 "--output", mae, "--lambda-index", "1"]) == 0
    assert main(["decompress", "--checkpoint", ckpt, "--input", mae,
                 "--output", out]) == 0
    from maecodec.image_io import read_ppm

    assert read_ppm(out).shape == (96, 96, 3)


def test_inspect_reports_where_the_bits_go(workspace, capsys):
    from maecodec.codec import LoadedCodec
    from maecodec.entropy import quantize
    from maecodec.image_io import read_ppm

    ckpt = str(workspace / "model.ckpt")
    src = workspace / "imgs" / "img_2.ppm"
    mae = workspace / "inspect.mae"
    assert main(["compress", "--checkpoint", ckpt, "--input", str(src),
                 "--output", str(mae), "--lambda-index", "1"]) == 0
    capsys.readouterr()
    assert main(["inspect", str(mae), "--checkpoint", ckpt]) == 0
    lines = capsys.readouterr().out.splitlines()
    codec = LoadedCodec(ckpt)
    assert lines[0] == ("image 96x96, lambda_index 1 (lambda 512), 16 channels of 6x6, "
                        f"model_hash {codec.model_hash:016x}")
    payload_bits = 8 * (mae.stat().st_size - 29)
    assert lines[1] == f"payload {payload_bits // 8} bytes = {payload_bits} bits"
    assert lines[2] == "channel,cross_entropy_bits"
    # each channel's cross-entropy, from the encoder's own latent
    q = quantize(codec.latent(read_ppm(src), 512.0))
    expected = [t.bits_for(q[c].ravel() + t.offset) for c, t in enumerate(codec.tables())]
    assert lines[3:19] == [f"{c},{b:.2f}" for c, b in enumerate(expected)]
    total, overhead = sum(expected), payload_bits - sum(expected)
    assert 0 <= overhead <= 64
    assert lines[19:] == [f"cross-entropy {total:.2f} bits, coder overhead "
                          f"{overhead:.2f} bits (bound 64)"]
    # a file that is not a bitstream is an error, not a traceback
    assert main(["inspect", ckpt, "--checkpoint", ckpt]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "\n" not in err.strip()


def test_param_count_default(capsys):
    assert main(["param-count", "--config", "default"]) == 0
    out = capsys.readouterr().out
    assert "shared" in out and "59,352" in out


def test_rd_curve_csv(workspace):
    ckpt = str(workspace / "model.ckpt")
    out = workspace / "curve.csv"
    assert main(["rd-curve", "--checkpoint", ckpt,
                 "--images", str(workspace / "imgs"), "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "method,lambda,bpp,psnr_db,msssim_db"
    assert len(lines) == 4
    assert all(line.split(",")[0] == "mae" for line in lines[1:])


def test_evaluate_stdout(workspace, capsys):
    ckpt = str(workspace / "model.ckpt")
    assert main(["evaluate", "--checkpoint", ckpt, "--images",
                 str(workspace / "imgs"), "--lambda-index", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "method,lambda,bpp,psnr_db,msssim_db"
    assert out[1].startswith("mae,64,")


def test_evaluate_prints_the_rows_it_writes(workspace, capsys):
    argv = ["evaluate", "--checkpoint", str(workspace / "model.ckpt"),
            "--images", str(workspace / "imgs")]
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    csv_path = workspace / "evaluate.csv"
    assert main(argv + ["--output", str(csv_path)]) == 0
    assert printed == csv_path.read_text().splitlines()
    assert len(printed) == 4  # header and one row per tradeoff of the mae checkpoint


def test_evaluate_image_below_the_msssim_window_is_an_error(workspace, capsys):
    images = workspace / "tiny_imgs"
    images.mkdir()
    write_ppm(images / "tiny.ppm", make_corpus(1, 8, 9)[0])
    assert main(["evaluate", "--checkpoint", str(workspace / "model.ckpt"),
                 "--images", str(images)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ms_ssim needs both image sides of at least 11 px")
    assert "\n" not in captured.err.strip()


def test_evaluate_plain_checkpoint_serves_its_recorded_tradeoff(workspace, capsys):
    model = CodecModel(CodecConfig(channels=16, mod_hidden=10),
                       TradeoffSet((64.0, 512.0, 4096.0)), "plain", seed=1)
    argv = ["evaluate", "--images", str(workspace / "imgs"), "--checkpoint"]
    labelled, unlabelled = workspace / "plain1.ckpt", workspace / "plain.ckpt"
    snapshot(model, 0, lambda_index=1).save(labelled)
    snapshot(model, 0).save(unlabelled)
    assert main(argv + [str(labelled)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and out[1].startswith("independent,512,")
    # like rd-curve, a plain checkpoint with no recorded tradeoff is an error
    assert main(argv + [str(unlabelled)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "\n" not in err.strip()


def test_evaluate_index_must_be_a_served_tradeoff(workspace, capsys):
    model = CodecModel(CodecConfig(channels=16, mod_hidden=10),
                       TradeoffSet((64.0, 512.0, 4096.0)), "plain", seed=1)
    argv = ["evaluate", "--images", str(workspace / "imgs"), "--checkpoint"]
    labelled, unlabelled = workspace / "served1.ckpt", workspace / "served.ckpt"
    snapshot(model, 0, lambda_index=1).save(labelled)
    snapshot(model, 0).save(unlabelled)
    # a model trained at tradeoff 1 is not evaluated as if trained at 0
    for path, index in ((labelled, "0"), (workspace / "model.ckpt", "3")):
        assert main(argv + [str(path), "--lambda-index", index]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --lambda-index {index} is not a tradeoff")
        assert "\n" not in captured.err.strip()
    assert main(argv + [str(labelled), "--lambda-index", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("independent,512,")
    # an unlabelled independent checkpoint is evaluated at the index given
    assert main(argv + [str(unlabelled), "--lambda-index", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("independent,64,")


def test_compress_index_must_be_a_served_tradeoff(workspace, capsys):
    model = CodecModel(CodecConfig(channels=16, mod_hidden=10),
                       TradeoffSet((64.0, 512.0, 4096.0)), "plain", seed=1)
    labelled, unlabelled = workspace / "coded1.ckpt", workspace / "coded.ckpt"
    snapshot(model, 0, lambda_index=1).save(labelled)
    snapshot(model, 0).save(unlabelled)
    mae = workspace / "served.mae"
    argv = ["compress", "--input", str(workspace / "imgs" / "img_0.ppm"),
            "--output", str(mae), "--checkpoint"]
    # a model trained at tradeoff 1 writes no stream labelled with tradeoff 0
    assert main(argv + [str(labelled), "--lambda-index", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not mae.exists()
    assert captured.err.startswith("error: lambda index 0 is not a tradeoff")
    assert "\n" not in captured.err.strip()
    assert main(argv + [str(labelled), "--lambda-index", "1"]) == 0
    # an unlabelled independent checkpoint codes at the index given
    assert main(argv + [str(unlabelled), "--lambda-index", "0"]) == 0
    capsys.readouterr()
    assert main(["inspect", "--checkpoint", str(unlabelled), str(mae)]) == 0
    assert "lambda_index 0 (lambda 64)" in capsys.readouterr().out


def test_checkpoint_tradeoff_index_out_of_range(workspace, capsys):
    model = CodecModel(CodecConfig(channels=16, mod_hidden=10),
                       TradeoffSet((64.0, 512.0, 4096.0)), "plain", seed=1)
    images = workspace / "imgs"
    for index in (7, -1):
        path = workspace / f"index{index}.ckpt"
        snapshot(model, 0, lambda_index=index).save(path)
        mae = workspace / f"index{index}.mae"
        for argv in (["compress", "--input", str(images / "img_0.ppm"), "--output", str(mae),
                      "--lambda-index", "0"],
                     ["evaluate", "--images", str(images)]):
            assert main(argv + ["--checkpoint", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and not mae.exists()
            assert captured.err.startswith("error: malformed checkpoint header: lambda_index")
            assert "\n" not in captured.err.strip()


def test_stream_at_a_tradeoff_the_checkpoint_does_not_serve(workspace, capsys):
    model = CodecModel(CodecConfig(channels=16, mod_hidden=10),
                       TradeoffSet((64.0, 512.0, 4096.0)), "plain", seed=1)
    labelled = workspace / "unserved1.ckpt"
    snapshot(model, 0, lambda_index=1).save(labelled)
    mae, patched = workspace / "unserved.mae", workspace / "unserved0.mae"
    assert main(["compress", "--input", str(workspace / "imgs" / "img_0.ppm"),
                 "--output", str(mae), "--checkpoint", str(labelled),
                 "--lambda-index", "1"]) == 0
    capsys.readouterr()
    # the header's tradeoff byte follows magic, version, flags, width and height
    at = struct.calcsize(">4sBBHH")
    data = bytearray(mae.read_bytes())
    assert data[at] == 1
    data[at] = 0
    patched.write_bytes(bytes(data))
    out = workspace / "unserved0.ppm"
    for argv in (["decompress", "--input", str(patched), "--output", str(out)],
                 ["inspect", str(patched)]):
        assert main(argv + ["--checkpoint", str(labelled)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: lambda index 0 is not a tradeoff")
        assert "\n" not in captured.err.strip()


def test_stream_with_a_zero_side_is_an_error(workspace, capsys):
    from maecodec.rangecoder import Bitstream

    ckpt = str(workspace / "model.ckpt")
    mae, patched = workspace / "zero.mae", workspace / "zero0.mae"
    assert main(["compress", "--input", str(workspace / "imgs" / "img_0.ppm"),
                 "--output", str(mae), "--checkpoint", ckpt, "--lambda-index", "0"]) == 0
    capsys.readouterr()
    bits = Bitstream.from_bytes(mae.read_bytes())
    bits.height = bits.latent_height = 0
    patched.write_bytes(bits.to_bytes())
    out = workspace / "zero0.ppm"
    for argv in (["decompress", "--input", str(patched), "--output", str(out)],
                 ["inspect", str(patched)]):
        assert main(argv + ["--checkpoint", ckpt]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: 0x96 image: image sides must be positive")
        assert "\n" not in captured.err.strip()


def test_rd_curve_without_a_checkpoint_is_an_error(workspace, capsys):
    out = workspace / "empty_curve.csv"
    assert main(["rd-curve", "--checkpoint", ",", "--images", str(workspace / "imgs"),
                 "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "checkpoint" in err and "\n" not in err.strip()
    assert not out.exists()


def test_inspect_ratio(workspace, capsys):
    ckpt = str(workspace / "model.ckpt")
    out_dir = workspace / "ratios"
    assert main(["inspect-ratio", "--checkpoint", ckpt,
                 "--input", str(workspace / "imgs" / "img_1.ppm"),
                 "--lambda-index", "2,0", "--channels", "0,2",
                 "--output", str(out_dir)]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == \
        ["ratio_ch000.pgm", "ratio_ch002.pgm"]
    assert capsys.readouterr().out.startswith("channel,min,max,variance")


def test_error_exit_code_is_one(workspace, capsys):
    assert main(["decompress", "--checkpoint", str(workspace / "model.ckpt"),
                 "--input", str(workspace / "model.ckpt"),  # not a bitstream
                 "--output", str(workspace / "nope.ppm")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "\n" not in err.strip()


@pytest.mark.parametrize("header", [b"P6\nabc 10\n255\n", b"P6\n-1 -1\n255\nabc",
                                    b"P6\n0 4\n255\n"])
def test_malformed_ppm_header_is_an_error(workspace, capsys, header):
    src = workspace / "bad.ppm"
    src.write_bytes(header)
    assert main(["compress", "--checkpoint", str(workspace / "model.ckpt"),
                 "--input", str(src), "--lambda-index", "0",
                 "--output", str(workspace / "bad.mae")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {src}: ") and "\n" not in err.strip()


@pytest.mark.parametrize("flag", ["--checkpoint", "--input"])
def test_directory_for_a_file_is_an_error(workspace, capsys, flag):
    args = {"--checkpoint": str(workspace / "model.ckpt"),
            "--input": str(workspace / "imgs" / "img_0.ppm"),
            "--output": str(workspace / "dir.mae")}
    args[flag] = str(workspace / "imgs")
    argv = [v for pair in args.items() for v in pair]
    for command in (["compress", "--lambda-index", "0"], ["decompress"]):
        assert main(command + argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "\n" not in err.strip()
        assert str(workspace / "imgs") in err


def test_inspect_ratio_index_out_of_range(workspace, capsys):
    assert main(["inspect-ratio", "--checkpoint", str(workspace / "model.ckpt"),
                 "--input", str(workspace / "imgs" / "img_1.ppm"),
                 "--lambda-index", "3,0", "--output", str(workspace / "ratios_bad")]) == 1
    assert "out of range" in capsys.readouterr().err


def test_inspect_ratio_channels_not_integers(workspace, capsys):
    assert main(["inspect-ratio", "--checkpoint", str(workspace / "model.ckpt"),
                 "--input", str(workspace / "imgs" / "img_1.ppm"), "--lambda-index", "2,0",
                 "--channels", "a", "--output", str(workspace / "ratios_bad")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --channels") and "\n" not in err.strip()


def test_inspect_ratio_repeated_channel(workspace, capsys):
    out_dir = workspace / "ratios_repeated"
    assert main(["inspect-ratio", "--checkpoint", str(workspace / "model.ckpt"),
                 "--input", str(workspace / "imgs" / "img_1.ppm"), "--lambda-index", "2,0",
                 "--channels", "0,0", "--output", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "channel 0" in captured.err
    assert "\n" not in captured.err.strip() and "wrote" not in captured.out
    assert not out_dir.exists()


@pytest.mark.parametrize("line", ["channels = abc", "lambdas = 64,x",
                                  "snapshot_iters = 1,,2"])
def test_malformed_config_value_is_an_error(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main(["param-count", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:1: ") and "\n" not in err.strip()


def test_usage_error_exit_code_is_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["compress", "--bogus-flag", "x"])
    assert exc.value.code == 2
