"""Import footprint: maecodec runs on numpy alone.  The codec, training,
gradient-check and MS-SSIM paths load no scipy module (scipy.special alone
cost about 21 MB and 0.17 s per process), and only non-PPM image files load
Pillow, on first use."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_PROGRAM = r"""
import sys
from pathlib import Path

import numpy as np

from maecodec import tensor as T
from maecodec.cli import main
from maecodec.image_io import write_ppm
from maecodec.network import CodecConfig, CodecModel, TradeoffSet
from maecodec.synthetic import make_corpus, make_image
from maecodec.training import rd_terms, snapshot

work = Path(sys.argv[1])
images = work / "imgs"
images.mkdir()
for i, img in enumerate(make_corpus(2, 32, 32)):
    write_ppm(images / f"img_{i}.ppm", img)
ckpt, mae, rec = (str(work / name) for name in ("tiny.ckpt", "x.mae", "x.ppm"))
tradeoffs = TradeoffSet((64.0, 512.0, 4096.0))
snapshot(CodecModel(CodecConfig(channels=4, mod_hidden=3), tradeoffs, "mae", seed=1),
         0).save(ckpt)
src = str(images / "img_0.ppm")
assert main(["compress", "--checkpoint", ckpt, "--input", src, "--output", mae,
             "--lambda-index", "1"]) == 0
assert main(["decompress", "--checkpoint", ckpt, "--input", mae, "--output", rec]) == 0
assert main(["inspect", mae, "--checkpoint", ckpt]) == 0

cfg = work / "tiny.cfg"
cfg.write_text("mode = mae\nchannels = 4\nmod_hidden = 3\ncrop_size = 16\nbatch_size = 1\n"
               "total_iters = 2\nhalve_at = 2\nphase2_iters = 0\nlambdas = 64,512,4096\n")
assert main(["train", "--config", str(cfg), "--images", str(images),
             "--output", str(work / "trained.ckpt")]) == 0

model = CodecModel(CodecConfig(channels=2, mod_hidden=2), tradeoffs, "plain", seed=2,
                   dtype=np.float64)
x = T.Tensor(make_image(5, 16, 16).transpose(2, 0, 1)[None].astype(np.float64))
noise = T.Tensor(np.random.default_rng(3).uniform(-0.5, 0.5, size=(1, 2, 1, 1)))
names = [n for n in model.parameters() if n.startswith("density.")]

def objective(*ps):
    model.adopt_parameters(dict(zip(names, ps)))
    return rd_terms(x, 512.0, model, noise=noise)[0]

assert T.grad_check(objective, [model.parameters()[n] for n in names]) < 1e-4

def unneeded():
    return sorted(m for m in sys.modules if m in ("scipy", "PIL") or m.startswith("scipy."))

assert not unneeded(), f"loaded without need: {unneeded()}"

from maecodec import ms_ssim

a = make_image(6, 176, 176)
assert ms_ssim(a, a) == 1.0
assert not unneeded(), f"loaded by ms_ssim: {unneeded()}"
print("ok")
"""


def test_codec_training_grad_check_and_ms_ssim_load_no_scipy_or_pillow(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _PROGRAM, str(tmp_path)], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"
