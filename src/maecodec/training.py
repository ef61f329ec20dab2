"""Multi-tradeoff rate-distortion training, Adam, datasets, checkpoints.

One training thread owns the parameters.  All randomness is drawn from
per-iteration generators keyed by (seed, phase, iteration), so runs are
bit-reproducible regardless of how batches are prepared.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .entropy import add_uniform_noise, rate_bits
from .exceptions import CheckpointError, ContractViolation, DatasetError
from .network import TRADEOFF_PARAMS, CodecConfig, CodecModel, TradeoffSet

_CKPT_MAGIC = b"MAEC"
_CKPT_VERSION = 1
_CKPT_KEYS = ("channels", "mod_hidden", "mode", "lambdas", "iteration", "params")

# training method -> network mode, where the two names differ: the
# independent method trains a plain (single-tradeoff) autoencoder
NETWORK_MODES = {"independent": "plain"}


@dataclass(frozen=True)
class TrainingConfig:
    """Desk-scale defaults; the full-scale recipe (192 channels, 240 crops,
    400k iterations halved for another 150k) stays reachable via fields."""

    mode: str = "mae"                    # mae | independent | bottleneck
    channels: int = 32
    mod_hidden: int = 50
    crop_size: int = 48
    batch_size: int = 8
    lr_main: float = 4e-4
    lr_entropy: float = 2e-3
    total_iters: int = 7000              # at the top tradeoff (independent: its own)
    halve_at: int = 5000
    phase2_iters: int = 1500             # then per non-top tradeoff, bottleneck and mae
    seed: int = 0
    lambdas: tuple = (64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0)
    lambda_index: int | None = None      # fixed tradeoff, independent mode only
    snapshot_iters: tuple = ()

    def __post_init__(self):
        if self.crop_size % 16:
            raise ContractViolation(f"crop size must be a multiple of 16, got {self.crop_size}")
        if min(self.lr_main, self.lr_entropy) <= 0:
            raise ContractViolation("learning rates must be positive")
        if self.halve_at > self.total_iters:
            raise ContractViolation("halving point must not exceed total iterations")
        if self.batch_size < 1 or self.total_iters < 0 or self.phase2_iters < 0:
            raise ContractViolation("batch size must be >= 1 and iteration counts >= 0")
        if self.mode not in ("mae", "independent", "bottleneck"):
            raise ContractViolation(f"unknown training mode {self.mode!r}")
        if self.mode == "independent" and self.lambda_index is None:
            raise ContractViolation("independent mode needs lambda_index")
        if self.lambda_index is not None and not 0 <= self.lambda_index < len(self.lambdas):
            raise ContractViolation(
                f"lambda_index {self.lambda_index} out of range for {len(self.lambdas)} tradeoffs")

    @property
    def tradeoffs(self):
        return TradeoffSet(self.lambdas)

    @property
    def codec_config(self):
        return CodecConfig(channels=self.channels, mod_hidden=self.mod_hidden)

    def learning_rate(self, base, iteration):
        """Step schedule: halved for iterations past the halving point."""
        return base * (0.5 if iteration > self.halve_at else 1.0)


_CONFIG_TYPES = {
    "mode": str,
    "channels": int, "mod_hidden": int, "crop_size": int, "batch_size": int,
    "total_iters": int, "halve_at": int, "phase2_iters": int, "seed": int,
    "lr_main": float, "lr_entropy": float,
    "lambda_index": int,
}


def load_training_config(path):
    """Parse a flat key=value text file ('#' starts a comment)."""
    fields = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ContractViolation(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "lambdas":
            fields[key] = tuple(float(v) for v in value.split(","))
        elif key == "snapshot_iters":
            fields[key] = tuple(int(v) for v in value.split(",")) if value else ()
        elif key in _CONFIG_TYPES:
            fields[key] = _CONFIG_TYPES[key](value)
        else:
            raise ContractViolation(f"{path}:{lineno}: unknown config key {key!r}")
    return TrainingConfig(**fields)


# ---------------------------------------------------------------------------
# objective


def sample_tradeoff(tradeoffs, rng):
    """Uniform draw from the discrete tradeoff set."""
    lams = tuple(tradeoffs)
    return lams[int(rng.integers(len(lams)))]


def rd_terms(x, lam, model, noise_rng=None, noise=None):
    """Loss pieces for one batch at one tradeoff of the model's set.

    Returns (loss, rate_bpp, mse) as Tensors, with
    loss = bits/pixel + lam * mean squared error on [0, 1] pixels.
    ``noise`` overrides the uniform draw (used by gradient checks, which
    need a deterministic program).
    """
    lam = float(lam)
    num_pixels = x.shape[0] * x.shape[2] * x.shape[3]
    z = model.encode(x, lam)
    if noise is None:
        z_tilde = add_uniform_noise(z, noise_rng)
    else:
        z_tilde = T.add(z, noise)
    bpp = T.div(rate_bits(z_tilde, model.density), float(num_pixels))
    x_hat = model.decode(z_tilde, lam)
    mse = T.reduce_mean(T.square(T.sub(x, x_hat)))
    loss = T.add(bpp, T.mul(mse, lam))
    return loss, bpp, mse


def tradeoff_weight(model, lam):
    """Training weight of one tradeoff's objective: max(lambdas) / lam in
    "mae" mode, 1 otherwise.

    The distortion term grows with lam (at lam=4096 it is ~40x the lam=64
    term), so one Adam optimizer fed the plain sampled objective fits the
    shared transforms and the modulation networks to the top tradeoff and
    the low tradeoffs collapse onto it.  Weighting by max/lam gives every
    tradeoff the top tradeoff's distortion weight; rates are then traded
    against it at lam's own slope.  The top tradeoff keeps weight 1, so
    the top-tradeoff phase of train() runs the plain objective (Adam is
    blind to a constant factor, so min/lam would step alike but for its
    epsilon).  The entropy model is exempt (see _train_steps): its only
    loss is the rate, so the weight would just skew it towards the
    low-tradeoff latents.  A deviation from the paper's plain sum.
    """
    if model.mode != "mae":
        return 1.0
    return model.tradeoffs.lambdas[-1] / float(lam)


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Standard Adam with bias correction and a per-parameter learning-rate
    scale (the entropy model trains faster than the transforms)."""

    def __init__(self, params, lr_scale=None, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr_scale = list(lr_scale) if lr_scale is not None else [1.0] * len(self.params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads, lr):
        """One update; ``grads`` maps Tensor -> ndarray, ``lr`` is the base
        rate before per-parameter scaling."""
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        correction1 = 1.0 - b1 ** self.step_count
        correction2 = 1.0 - b2 ** self.step_count
        for p, m, v, scale in zip(self.params, self.m, self.v, self.lr_scale):
            g = grads[p]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            m_hat = m / correction1
            v_hat = v / correction2
            p.data -= (lr * scale) * m_hat / (np.sqrt(v_hat) + self.eps)


def adam_for_model(model, trainable=None, lr_entropy_scale=1.0):
    """Adam over the model's parameters (or the given name subset), with
    entropy-model parameters scaled to their own learning rate."""
    named = model.parameters()
    if trainable is not None:
        named = {n: t for n, t in named.items() if n in trainable}
    scales = [lr_entropy_scale if name.startswith("density.") else 1.0 for name in named]
    return Adam(named.values(), lr_scale=scales), list(named.values())


# ---------------------------------------------------------------------------
# dataset


def load_dataset(directory, min_size=None):
    """All decodable images under ``directory`` as float32 HWC in [0, 1].

    Undecodable files are skipped with a warning; an empty result (or one
    where every image is smaller than ``min_size``) is a hard error.
    """
    from .image_io import read_image

    paths = sorted(p for p in Path(directory).iterdir() if p.is_file())
    images = []
    for path in paths:
        try:
            images.append(read_image(path))
        except Exception as exc:  # noqa: BLE001 - any decode failure just skips
            warnings.warn(f"skipping undecodable file {path}: {exc}", stacklevel=2)
    if not images:
        raise DatasetError(f"no decodable images in {directory}")
    if min_size is not None:
        usable = [im for im in images if min(im.shape[0], im.shape[1]) >= min_size]
        if not usable:
            raise DatasetError(
                f"all {len(images)} images in {directory} are smaller than {min_size}px"
            )
        images = usable
    return images


def next_batch(images, crop_size, batch_size, rng):
    """Uniform image choice, uniform crop position, NCHW float32 batch."""
    batch = np.empty((batch_size, 3, crop_size, crop_size), dtype=np.float32)
    picks = rng.integers(len(images), size=batch_size)
    for row, idx in enumerate(picks):
        img = images[int(idx)]
        y = int(rng.integers(img.shape[0] - crop_size + 1))
        x = int(rng.integers(img.shape[1] - crop_size + 1))
        crop = img[y : y + crop_size, x : x + crop_size]
        batch[row] = crop.transpose(2, 0, 1)
    return T.Tensor(batch)


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class Checkpoint:
    """Self-describing snapshot: architecture, mode, tradeoffs, parameters.

    ``lambda_index`` records which tradeoff an independently trained
    ("plain") model was optimized for; None otherwise.
    """

    config: CodecConfig
    mode: str
    lambdas: tuple
    iteration: int
    params: dict
    lambda_index: int | None = None
    version: int = _CKPT_VERSION

    def to_bytes(self):
        names = sorted(self.params)
        header = {
            "version": self.version,
            "channels": self.config.channels,
            "mod_hidden": self.config.mod_hidden,
            "mode": self.mode,
            "lambdas": list(self.lambdas),
            "lambda_index": self.lambda_index,
            "iteration": self.iteration,
            "params": [[n, list(self.params[n].shape)] for n in names],
        }
        head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        blob = bytearray()
        blob += _CKPT_MAGIC
        blob += struct.pack(">BI", self.version, len(head))
        blob += head
        for name in names:
            blob += np.ascontiguousarray(self.params[name], dtype="<f4").tobytes()
        return bytes(blob)

    @classmethod
    def from_bytes(cls, data):
        if data[:4] != _CKPT_MAGIC:
            raise CheckpointError("not a checkpoint file (bad magic)")
        if len(data) < 9:
            raise CheckpointError("checkpoint shorter than its 9-byte preamble")
        version, head_len = struct.unpack(">BI", data[4:9])
        if version != _CKPT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        try:
            header = json.loads(data[9 : 9 + head_len].decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
        if not isinstance(header, dict) or not all(key in header for key in _CKPT_KEYS):
            raise CheckpointError(
                f"checkpoint header must be an object with keys {', '.join(_CKPT_KEYS)}")
        offset = 9 + head_len
        params = {}
        try:
            for name, shape in header["params"]:
                count = int(np.prod(shape, dtype=np.int64)) if shape else 1
                end = offset + 4 * count
                if end > len(data):
                    raise CheckpointError(f"checkpoint truncated inside block {name!r}")
                params[name] = np.frombuffer(data[offset:end], dtype="<f4").reshape(shape).copy()
                offset = end
            lambda_index = header.get("lambda_index")
            ckpt = cls(
                config=CodecConfig(channels=header["channels"], mod_hidden=header["mod_hidden"]),
                mode=header["mode"],
                lambdas=tuple(header["lambdas"]),
                iteration=int(header["iteration"]),
                params=params,
                lambda_index=None if lambda_index is None else int(lambda_index),
                version=version,
            )
        except CheckpointError:
            raise
        except (TypeError, ValueError) as exc:
            # fields of the wrong type or shape (ContractViolation included)
            raise CheckpointError(f"malformed checkpoint header: {exc}") from exc
        if offset != len(data):
            raise CheckpointError("checkpoint has trailing bytes")
        return ckpt

    def save(self, path):
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path):
        return cls.from_bytes(Path(path).read_bytes())

    @property
    def model_hash(self):
        """64-bit digest of the serialized bytes; guards bitstream decode."""
        return int.from_bytes(hashlib.sha256(self.to_bytes()).digest()[:8], "big")


def snapshot(model, iteration, lambda_index=None):
    return Checkpoint(
        config=model.config,
        mode=model.mode,
        lambdas=model.tradeoffs.lambdas,
        iteration=int(iteration),
        params={name: t.data.astype("<f4", copy=True) for name, t in model.parameters().items()},
        lambda_index=lambda_index,
    )


def model_from_checkpoint(ckpt, dtype=np.float32):
    model = CodecModel(ckpt.config, TradeoffSet(ckpt.lambdas), ckpt.mode, dtype=dtype)
    named = model.parameters()
    missing = set(named) - set(ckpt.params)
    extra = set(ckpt.params) - set(named)
    if missing or extra:
        raise CheckpointError(
            f"checkpoint does not match architecture (missing {sorted(missing)}, "
            f"unexpected {sorted(extra)})"
        )
    for name, tensor in named.items():
        block = ckpt.params[name]
        if tuple(block.shape) != tuple(tensor.shape):
            raise CheckpointError(
                f"parameter {name!r} has shape {block.shape}, expected {tensor.shape}"
            )
        tensor.data = np.ascontiguousarray(block, dtype=dtype)
    return model


# ---------------------------------------------------------------------------
# training loop


def _iteration_rng(seed, phase, iteration):
    return np.random.default_rng([int(seed), int(phase), int(iteration)])


def _abort_if_nonfinite(loss, bpp, mse, iteration, lam):
    if not np.isfinite(loss):
        raise ArithmeticError(
            f"non-finite loss at iteration {iteration} (lambda={lam}): "
            f"loss={loss!r}, rate_bpp={bpp!r}, mse={mse!r}"
        )


class _TrainLog:
    def __init__(self, path):
        self._file = None
        if path is not None:
            self._file = open(path, "a", newline="")
            self._writer = csv.writer(self._file)
            if self._file.tell() == 0:
                self._writer.writerow(["iteration", "lambda", "rate_bpp", "mse", "loss", "lr"])

    def row(self, iteration, lam, bpp, mse, loss, lr):
        if self._file is not None:
            self._writer.writerow([iteration, f"{lam:g}", f"{bpp:.6f}", f"{mse:.8f}",
                                   f"{loss:.6f}", f"{lr:.6g}"])

    def close(self):
        if self._file is not None:
            self._file.close()


def _train_steps(model, optimizer, params, config, images, *, phase, iterations,
                 pick_lambda, log, base_lr=None, start_count=0):
    if base_lr is None:
        base_lr = config.lr_main
    for it in range(1, iterations + 1):
        rng = _iteration_rng(config.seed, phase, it)
        lam = pick_lambda(rng)
        batch = next_batch(images, config.crop_size, config.batch_size, rng)
        weight = tradeoff_weight(model, lam)
        with T.GradientTape() as tape:
            loss, bpp, mse = rd_terms(batch, lam, model, noise_rng=rng)
            objective = loss if weight == 1.0 else T.mul(loss, weight)
        grads = tape.backward(objective, params=params)
        if weight != 1.0:
            # the entropy model's loss is the rate alone, and it must model
            # the latents of every tradeoff: it takes the unweighted gradient
            for p in model.density.parameters().values():
                if p in grads:
                    grads[p] = grads[p] / weight
        lr = config.learning_rate(base_lr, start_count + it)
        optimizer.step(grads, lr)
        model.project()
        loss_v, bpp_v, mse_v = loss.item(), bpp.item(), mse.item()
        _abort_if_nonfinite(loss_v, bpp_v, mse_v, start_count + it, lam)
        log.row(start_count + it, lam, bpp_v, mse_v, loss_v, lr)
        yield start_count + it


def train(config, dataset, log_path=None):
    """Run the configured training procedure over an image list or directory.

    Modes:
      mae          - the shared autoencoder trains total_iters at the
                     largest tradeoff, modulation networks held at their
                     initialization; then every parameter trains for
                     phase2_iters per non-top tradeoff under a fresh Adam,
                     one tradeoff sampled uniformly per minibatch and its
                     objective scaled by tradeoff_weight, max(lambdas) / lam,
                     so that the top tradeoff does not dominate the
                     optimizer.
      independent  - fixed tradeoff (config.lambda_index) on a plain
                     autoencoder.
      bottleneck   - plain autoencoder at the largest tradeoff, then the
                     transforms are frozen and one scaling vector is learned
                     per remaining tradeoff.

    Returns a list of (iteration, Checkpoint): requested snapshots plus the
    final state.  Iterations count the steps that train the transforms:
    total_iters, plus the joint phase in mae mode (the bottleneck's
    scaling-only phase does not advance the count).  Deterministic:
    identical config and dataset give bit-identical checkpoints.
    """
    images = dataset
    if isinstance(dataset, (str, Path)):
        images = load_dataset(dataset, min_size=config.crop_size)
    for img in images:
        if min(img.shape[0], img.shape[1]) < config.crop_size:
            raise DatasetError("every training image must be at least crop-size on both sides")

    tradeoffs = config.tradeoffs
    mode = NETWORK_MODES.get(config.mode, config.mode)
    model = CodecModel(config.codec_config, tradeoffs, mode, seed=config.seed)
    lr_ratio = config.lr_entropy / config.lr_main
    # scale vectors and modulation networks are variable-rate state: the
    # top-tradeoff phase trains the shared autoencoder alone, leaving every
    # scale vector at 1 and every modulation network at its initialization
    phase1_names = {n for n in model.parameters() if not n.startswith(TRADEOFF_PARAMS)}
    optimizer, params = adam_for_model(model, trainable=phase1_names,
                                       lr_entropy_scale=lr_ratio)

    if config.mode == "independent":
        fixed = tradeoffs.lambdas[config.lambda_index]
        pick = lambda rng: fixed
    else:
        top = tradeoffs.lambdas[-1]
        pick = lambda rng: top
    joint_iters = (len(tradeoffs) - 1) * config.phase2_iters if config.mode == "mae" else 0
    final_iter = config.total_iters + joint_iters

    log = _TrainLog(log_path)
    wanted = set(config.snapshot_iters) - {final_iter}
    ckpt_lambda = config.lambda_index if config.mode == "independent" else None
    series = []
    try:
        for it in _train_steps(model, optimizer, params, config, images,
                               phase=0, iterations=config.total_iters,
                               pick_lambda=pick, log=log):
            if it in wanted:
                series.append((it, snapshot(model, it, ckpt_lambda)))

        if config.mode == "mae":
            # a fresh optimizer: top-tradeoff moments would turn the first
            # low-tradeoff gradients into oversized steps
            optimizer, params = adam_for_model(model, lr_entropy_scale=lr_ratio)
            for it in _train_steps(
                    model, optimizer, params, config, images, phase=1,
                    iterations=joint_iters,
                    pick_lambda=lambda rng: sample_tradeoff(tradeoffs, rng),
                    log=log, start_count=config.total_iters):
                if it in wanted:
                    series.append((it, snapshot(model, it, ckpt_lambda)))

        if config.mode == "bottleneck":
            # transforms and entropy model stay frozen; each remaining
            # tradeoff learns only its scaling vector, stepped at the fast
            # (entropy-model) rate since it must travel far from 1.0.
            # Freezing via requires_grad also keeps the tape off the encoder.
            all_named = model.parameters()
            for lam in tradeoffs.lambdas[:-1]:
                name = f"scale.{lam:g}"
                for pname, tensor in all_named.items():
                    tensor.requires_grad = pname == name
                optimizer, params = adam_for_model(model, trainable={name})
                steps = _train_steps(
                    model, optimizer, params, config, images,
                    phase=1 + tradeoffs.index_of(lam), iterations=config.phase2_iters,
                    pick_lambda=lambda rng, lam=lam: lam, log=log,
                    base_lr=config.lr_entropy, start_count=config.total_iters)
                for _ in steps:
                    pass
            for tensor in all_named.values():
                tensor.requires_grad = True
    finally:
        log.close()

    series.append((final_iter, snapshot(model, final_iter, ckpt_lambda)))
    return series
