"""The four benchmark workloads.

Each is a closed loop with one client: the next op starts when the
previous one has finished.  Inputs come from ``maecodec.synthetic`` under
the benchmark's seed.  A workload's constructor is its set-up; ``run(i)``
is op ``i`` and returns its outputs plus the seconds of each timed part;
``check(i, out)`` verifies those outputs and raises CheckFailed.

Every maecodec function is called through its module (``mcodec.x``,
never a name bound at import), so that the traced run's wrappers are
seen.
"""

from __future__ import annotations

import io
import math
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from maecodec import cli as mcli
from maecodec import codec as mcodec
from maecodec import entropy as mentropy
from maecodec import image_io as mimage_io
from maecodec import metrics as mmetrics
from maecodec import network as mnetwork
from maecodec import rangecoder as mrangecoder
from maecodec import synthetic as msynthetic
from maecodec import tensor as mtensor
from maecodec import training as mtraining

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

# The benchmark's own copy of a trained desk checkpoint (mode mae, 32
# channels, tradeoffs 64/512/4096, seed 0, 5000 iterations), so that the
# source-digest-keyed test artifact directories can come and go.
CHECKPOINT = BENCH_DIR / "data" / "desk_mae32_seed0.ckpt"
CHECKPOINT_MODEL_HASH = 0x24964ADF06656AAD

DESK_LAMBDAS = (64.0, 512.0, 4096.0)
OVERHEAD_BOUND_BITS = 64  # acceptance criterion 3b


class CheckFailed(Exception):
    pass


def load_checkpoint_codec():
    """A warm LoadedCodec on the benchmark checkpoint, hash-checked, with
    its CDF tables built."""
    ckpt = mtraining.Checkpoint.load(CHECKPOINT)
    if ckpt.model_hash != CHECKPOINT_MODEL_HASH:
        raise RuntimeError(
            f"{CHECKPOINT.name} has model hash {ckpt.model_hash:016x}, "
            f"expected {CHECKPOINT_MODEL_HASH:016x}")
    codec = mcodec.LoadedCodec(ckpt)
    codec.tables()
    return codec


def reference_latent(codec, image, lambda_index):
    """quantize(latent): what the decoder must recover exactly."""
    return mentropy.quantize(codec.latent(image, codec.tradeoffs.lambdas[lambda_index]))


def check_coding(codec, data, q_expected, original, decoded):
    """Verify one compress/decompress round trip; return bpp, PSNR and the
    payload's overhead over the table cross-entropy."""
    tables = codec.tables()
    q, _ = mrangecoder.unpack(data, tables)
    if q.shape != q_expected.shape or not np.array_equal(q, q_expected):
        raise CheckFailed("decoded latent differs from quantize(latent)")
    payload_bits = 8 * len(mrangecoder.Bitstream.from_bytes(data).payload)
    cross_entropy = sum(table.bits_for(q[ch].ravel() + table.offset)
                        for ch, table in enumerate(tables))
    overhead = payload_bits - cross_entropy
    if not 0 <= overhead <= OVERHEAD_BOUND_BITS:
        raise CheckFailed(f"payload overhead {overhead:.1f} bits outside "
                          f"[0, {OVERHEAD_BOUND_BITS}] over the table cross-entropy")
    if decoded.shape != original.shape:
        raise CheckFailed(f"decoded shape {decoded.shape} != input shape {original.shape}")
    if not (np.all(np.isfinite(decoded)) and decoded.min() >= 0.0 and decoded.max() <= 1.0):
        raise CheckFailed("decoded image has values outside [0, 1]")
    pixels = original.shape[0] * original.shape[1]
    return {"bpp": len(data) * 8.0 / pixels,
            "psnr_db": mmetrics.psnr(original, decoded),
            "overhead_bits": overhead}


class TrainDesk:
    """One op is one iteration of the desk training loop: mode mae, 32
    channels, 8 x 48^2 crops, a tradeoff from {64, 512, 4096} drawn per
    iteration, over a 20-image 256^2 corpus.

    Why: the training hot path.  Convolution forward and backward plus the
    tape do the work; the range coder and the CDF tables do none.
    """

    name = "train_desk"
    parts = ()
    work_name, work_unit = "train_samples_per_s", "crops"
    latency_name = "train_step_ms"

    def __init__(self, seed):
        config = mtraining.TrainingConfig(
            mode="mae", channels=32, crop_size=48, batch_size=8, lambdas=DESK_LAMBDAS,
            total_iters=5000, halve_at=3500, seed=seed)
        images = msynthetic.make_corpus(20, 256, 256, seed_base=20 * seed)
        model = mnetwork.CodecModel(config.codec_config, config.tradeoffs, "mae", seed=seed)
        optimizer, params = mtraining.adam_for_model(
            model, lr_entropy_scale=config.lr_entropy / config.lr_main)
        self.batch_size = config.batch_size
        self.loss = None
        # the loop train() runs, driven one iteration at a time; this
        # object is its log, which is how each iteration's loss comes out
        self._steps = mtraining._train_steps(
            model, optimizer, params, config, images, phase=0, iterations=1 << 40,
            pick_lambda=lambda rng: mtraining.sample_tradeoff(config.tradeoffs, rng),
            log=self)

    def row(self, iteration, lam, bpp, mse, loss, lr):
        self.loss = loss

    def run(self, i):
        self.loss = None
        next(self._steps)
        return {"parts": {}, "work": self.batch_size, "loss": self.loss}

    def check(self, i, out):
        if out["loss"] is None or not math.isfinite(out["loss"]):
            raise CheckFailed(f"training loss is not finite: {out['loss']!r}")
        return {}


class Codec512:
    """One op compresses one 512^2 image and decompresses it again on a
    warm LoadedCodec whose tables were built during set-up; the tradeoff
    index cycles 0, 1, 2 over two images.

    Why: forward-only convolutions carry the load, conv2d in analysis and
    conv2d_transpose in synthesis, with the range coder about 30% of each
    direction.  Tables are paid once here, so a table-build gain may only
    move set-up time on this workload.
    """

    name = "codec_512"
    parts = ("compress", "decompress")
    work_name = latency_name = None
    work_unit = "round trips"
    side = 512

    def __init__(self, seed):
        self.codec = load_checkpoint_codec()
        self.images = [msynthetic.make_image(1000 + 2 * seed + k, self.side, self.side)
                       for k in range(2)]
        self.expected = {(k, li): reference_latent(self.codec, self.images[k], li)
                         for k in range(2) for li in range(len(DESK_LAMBDAS))}

    @staticmethod
    def combo(i):
        return i % 2, i % len(DESK_LAMBDAS)

    def run(self, i):
        k, li = self.combo(i)
        t0 = time.perf_counter()
        data = mcodec.compress_image(self.codec, self.images[k], li)
        t1 = time.perf_counter()
        decoded = mcodec.decompress_image(self.codec, data)
        t2 = time.perf_counter()
        return {"parts": {"compress": t1 - t0, "decompress": t2 - t1}, "work": 1,
                "data": data, "decoded": decoded}

    def check(self, i, out):
        k, li = self.combo(i)
        return check_coding(self.codec, out["data"], self.expected[(k, li)],
                            self.images[k], out["decoded"])


class CliCold96:
    """One op runs ``maecodec.cli.main`` in-process, compress and then
    decompress, on a 93 x 99 PPM; the sides are not multiples of 16, so the
    pad and crop path runs.  Every call reloads the checkpoint file and
    rebuilds the tables, as the command line does for each file.

    Why: what a command-line user waits for.  Table building is most of it;
    convolutions and the range coder are a few percent, so this workload
    bypasses both.
    """

    name = "cli_cold_96"
    parts = ("compress", "decompress")
    work_name = latency_name = None
    work_unit = "round trips"
    height, width = 93, 99

    def __init__(self, seed):
        self.codec = load_checkpoint_codec()
        work = OUT_DIR / "cli_work"
        work.mkdir(parents=True, exist_ok=True)
        self.inputs, self.images = [], []
        for k in range(2):
            path = work / f"input{k}.ppm"
            mimage_io.write_ppm(path, msynthetic.make_image(2000 + 2 * seed + k,
                                                            self.height, self.width))
            self.inputs.append(path)
            self.images.append(mimage_io.read_image(path))
        self.bitstream = work / "op.mae"
        self.output = work / "op.ppm"
        self.expected = {(k, li): reference_latent(self.codec, self.images[k], li)
                         for k in range(2) for li in range(len(DESK_LAMBDAS))}

    combo = staticmethod(Codec512.combo)

    def run(self, i):
        k, li = self.combo(i)
        with redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc_compress = mcli.main(["compress", "--checkpoint", str(CHECKPOINT),
                                     "--input", str(self.inputs[k]),
                                     "--output", str(self.bitstream),
                                     "--lambda-index", str(li)])
            t1 = time.perf_counter()
            rc_decompress = mcli.main(["decompress", "--checkpoint", str(CHECKPOINT),
                                       "--input", str(self.bitstream),
                                       "--output", str(self.output)])
            t2 = time.perf_counter()
        return {"parts": {"compress": t1 - t0, "decompress": t2 - t1}, "work": 1,
                "exit_codes": (rc_compress, rc_decompress)}

    def check(self, i, out):
        if out["exit_codes"] != (0, 0):
            raise CheckFailed(f"cli exit codes {out['exit_codes']}, expected (0, 0)")
        k, li = self.combo(i)
        return check_coding(self.codec, self.bitstream.read_bytes(), self.expected[(k, li)],
                            self.images[k], mimage_io.read_image(self.output))


class GradcheckTiny:
    """One op is ``tensor.grad_check`` of the full rd_terms objective on the
    acceptance suite's tiny float64 model (3 channels, mod_hidden 3, a
    16^2 input, tradeoffs {0.25, 1}, fixed noise), with respect to one
    modulation network's 18 parameters; the network and the tradeoff
    cycle from op to op.

    Why: most of the tier-1 suite's wall time is such forward passes,
    bound by per-primitive Python overhead, a regime the other workloads
    never reach.
    """

    name = "gradcheck_tiny"
    parts = ()
    work_name, work_unit = "gradcheck_evals_per_s", "evals"
    latency_name = None
    lambdas = (0.25, 1.0)
    bound = 1e-4

    def __init__(self, seed):
        tradeoffs = mnetwork.TradeoffSet(self.lambdas)
        self.model = mnetwork.CodecModel(mnetwork.CodecConfig(channels=3, mod_hidden=3),
                                         tradeoffs, "mae", seed=seed, dtype=np.float64)
        nets = self.model.mod_nets + self.model.demod_nets
        # finite differences are invalid on a ReLU kink: keep every hidden
        # preactivation at least 1e-3 away from zero at both tradeoffs
        for _ in range(100):
            near = [np.abs(net.w1.data[0] * tradeoffs.normalized(lam) + net.b1.data) < 1e-3
                    for net in nets for lam in self.lambdas]
            if not any(mask.any() for mask in near):
                break
            for j, mask in enumerate(near):
                nets[j // len(self.lambdas)].b1.data[mask] += 0.05
        image = msynthetic.make_image(3000 + seed, 16, 16)
        self.x = mtensor.Tensor(image.transpose(2, 0, 1)[None].astype(np.float64))
        noise = np.random.default_rng([seed, 0x6E6F]).uniform(-0.5, 0.5, size=(1, 3, 1, 1))
        self.noise = mtensor.Tensor(noise)
        names = list(self.model.parameters())
        groups = [[n for n in names if n.startswith(f"{label}{j}.")]
                  for label in ("modulate", "demodulate") for j in range(3)]
        self.combos = [(group, lam) for lam in self.lambdas for group in groups]

    def run(self, i):
        names, lam = self.combos[i % len(self.combos)]
        model, x, noise = self.model, self.x, self.noise
        named = model.parameters()
        params = [named[n] for n in names]

        def objective(*ps):
            model.adopt_parameters(dict(zip(names, ps)))
            return mtraining.rd_terms(x, lam, model, noise=noise)[0]

        error = mtensor.grad_check(objective, params)
        evaluations = 2 * sum(p.size for p in params) + 1
        return {"parts": {}, "work": evaluations, "error": error}

    def check(self, i, out):
        if not out["error"] < self.bound:
            raise CheckFailed(f"gradient error {out['error']:.3e} >= {self.bound:g}")
        return {}


WORKLOADS = {cls.name: cls for cls in (TrainDesk, Codec512, CliCold96, GradcheckTiny)}
