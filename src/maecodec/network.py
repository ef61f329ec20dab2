"""The shared convolutional autoencoder, the tradeoff-conditioned
modulation networks, and the bottleneck-scaling baseline.

Encoder: three conv stages (9x9 stride 4, then two 5x5 stride 2), each
followed by GDN, for a total downsampling factor of 16.  Decoder mirrors
with transposed convs and IGDN; the final stage maps back to RGB.

In "mae" mode every encoder conv output is multiplied by a per-channel
vector produced from the normalized tradeoff by a small perceptron, and
the decoder demodulates the dequantized latent plus the two intermediate
transposed-conv outputs.  In "bottleneck" mode a plain autoencoder is
combined with learned per-tradeoff scaling vectors applied to the latent
before quantization and inverted after.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .entropy import FactorizedDensity, init_density
from .exceptions import ContractViolation
from .gdn import BETA_FLOOR, gdn_forward, igdn_forward

MODES = ("mae", "plain", "bottleneck")

# (kernel, stride, padding) per encoder stage; the decoder mirrors them
ENCODER_STAGES = ((9, 4, 4), (5, 2, 2), (5, 2, 2))
DECODER_STAGES = ENCODER_STAGES[::-1]
DOWNSAMPLE = 16
IMAGE_CHANNELS = 3

# name prefixes of the tradeoff-specific parameters (modulation networks,
# bottleneck scale vectors); every other parameter serves all tradeoffs
TRADEOFF_PARAMS = ("modulate", "demodulate", "scale.")
SCALE_FLOOR = 1e-4


@dataclass(frozen=True)
class CodecConfig:
    """Architecture hyperparameters; everything else is fixed topology."""

    channels: int = 192
    mod_hidden: int = 50

    def __post_init__(self):
        if self.channels < 1 or self.mod_hidden < 1:
            raise ContractViolation("channels and mod_hidden must be positive")


@dataclass(frozen=True)
class TradeoffSet:
    """The discrete tradeoff grid, uniformly weighted, max-normalized."""

    lambdas: tuple = (64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0)

    def __post_init__(self):
        lams = tuple(float(v) for v in self.lambdas)
        if not lams or any(v <= 0 for v in lams):
            raise ContractViolation("tradeoffs must be strictly positive")
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ContractViolation("tradeoffs must be strictly increasing")
        if len(lams) > 256:
            raise ContractViolation("at most 256 tradeoffs (index is one byte)")
        object.__setattr__(self, "lambdas", lams)

    def __len__(self):
        return len(self.lambdas)

    def __iter__(self):
        return iter(self.lambdas)

    def normalized(self, lam):
        """lam / max(lambdas), in (0, 1] for members of the set."""
        lam = float(lam)
        if lam not in self.lambdas:
            raise ContractViolation(f"tradeoff {lam} is not in {self.lambdas}")
        return lam / self.lambdas[-1]

    def index_of(self, lam):
        return self.lambdas.index(float(lam))


class ModulationNet:
    """1 -> hidden -> C perceptron; exp output keeps every entry positive.

    Its tensors ``w1``, ``b1``, ``w2``, ``b2`` are looked up under
    ``prefix`` in ``params`` (the model's parameter store) at every use.
    """

    def __init__(self, params, prefix):
        self.params, self.prefix = params, prefix

    w1 = property(lambda self: self.params[self.prefix + "w1"])
    b1 = property(lambda self: self.params[self.prefix + "b1"])
    w2 = property(lambda self: self.params[self.prefix + "w2"])
    b2 = property(lambda self: self.params[self.prefix + "b2"])

    @property
    def out_channels(self):
        return self.w2.shape[1]

    def __call__(self, lambda_hat):
        if not 0.0 < lambda_hat <= 1.0:
            raise ContractViolation(f"normalized tradeoff must be in (0, 1], got {lambda_hat}")
        x = T.Tensor(np.array([[lambda_hat]], dtype=self.w1.dtype))
        h = T.relu(T.affine(x, self.w1, self.b1))
        return T.reshape(T.exp(T.affine(h, self.w2, self.b2)), (self.out_channels,))


class CodecModel:
    """The parameters and forward maps of one trained codec.

    ``mode`` selects the variant: "mae" carries modulation networks,
    "bottleneck" carries per-tradeoff scaling vectors, "plain" is the
    bare autoencoder used for independently trained operating points.
    ``encode`` and ``decode`` take a tradeoff from the model's set and
    apply the mode's conditioning themselves.

    Every learnable tensor lives in one name -> Tensor dict, under its
    checkpoint name; the forward maps, the density and the modulation
    networks read their tensors from it by name.
    """

    def __init__(self, config, tradeoffs, mode, dtype=np.float32, seed=0):
        if mode not in MODES:
            raise ContractViolation(f"mode must be one of {MODES}, got {mode!r}")
        self.config = config
        self.tradeoffs = tradeoffs
        self.mode = mode
        self.dtype = np.dtype(dtype).type
        rng = np.random.default_rng([int(seed), 0x6D6165])

        # created in the order of their random draws
        c = config.channels
        p = self._params = {}
        in_ch = IMAGE_CHANNELS
        for i, (k, _, _) in enumerate(ENCODER_STAGES):
            std = (1.0 / (in_ch * k * k)) ** 0.5
            p[f"encoder.conv{i}.kernel"] = self._new(rng.normal(0.0, std, size=(c, in_ch, k, k)))
            p[f"encoder.conv{i}.bias"] = self._new(np.zeros(c))
            in_ch = c
        for i in range(len(ENCODER_STAGES)):
            self._new_gdn(f"encoder.gdn{i}", c)
        for i, (k, stride, _) in enumerate(DECODER_STAGES):
            out_ch = IMAGE_CHANNELS if i == len(DECODER_STAGES) - 1 else c
            std = (stride * stride / (c * k * k)) ** 0.5
            p[f"decoder.tconv{i}.kernel"] = self._new(rng.normal(0.0, std, size=(c, out_ch, k, k)))
            p[f"decoder.tconv{i}.bias"] = self._new(np.zeros(out_ch))
        for i in range(len(DECODER_STAGES) - 1):
            self._new_gdn(f"decoder.igdn{i}", c)

        density = init_density(c, dtype=self.dtype,
                               rng=np.random.default_rng([int(seed), 0x64656E]))
        p.update(density.params)
        self.density = FactorizedDensity(p)

        self.mod_nets, self.demod_nets = [], []
        if mode == "mae":
            # small, nonzero second layer: starts close to exp(0) = 1 while
            # keeping ReLU units alive so gradients reach the first layer
            hidden = config.mod_hidden
            for label, nets in (("modulate", self.mod_nets), ("demodulate", self.demod_nets)):
                for i in range(3):
                    prefix = f"{label}{i}."
                    p[prefix + "w1"] = self._new(rng.normal(0.0, 0.5, size=(1, hidden)))
                    p[prefix + "b1"] = self._new(np.full(hidden, 0.1))
                    p[prefix + "w2"] = self._new(rng.normal(0.0, 0.01, size=(hidden, c)))
                    p[prefix + "b2"] = self._new(np.zeros(c))
                    nets.append(ModulationNet(p, prefix))

        if mode == "bottleneck":
            for lam in tradeoffs:
                p[f"scale.{lam:g}"] = self._new(np.ones(c))

    def _new(self, values):
        return T.Tensor(values.astype(self.dtype), requires_grad=True)

    def _new_gdn(self, name, channels):
        # near-identity start: beta = 1, gamma = 0.1 * I
        self._params[f"{name}.beta"] = self._new(np.ones(channels))
        self._params[f"{name}.gamma"] = self._new(0.1 * np.eye(channels))

    # -- parameters -------------------------------------------------------------

    def parameters(self):
        """The name -> Tensor store of every learnable block, in creation
        order; the model reads its tensors from this very dict."""
        return self._params

    def adopt_parameters(self, named):
        """Replace stored tensors by the given Tensor objects.

        Gradient checks and model surgery need the supplied tensors to be
        the actual graph inputs, not copies of their values.
        """
        unknown = set(named) - set(self._params)
        if unknown:
            raise ContractViolation(f"unknown parameter names: {sorted(unknown)}")
        for name, tensor in named.items():
            current = self._params[name]
            if tuple(current.shape) != tuple(tensor.shape):
                raise ContractViolation(
                    f"parameter {name!r} has shape {tuple(current.shape)}, "
                    f"got {tuple(tensor.shape)}"
                )
        self._params.update(named)

    def project(self):
        """Clamp parameters back into their feasible sets, in place: GDN
        offsets to >= BETA_FLOOR, GDN couplings and scale vectors to their
        floors.  Called after every optimizer step."""
        for name, t in self._params.items():
            if name.endswith(".beta"):
                np.maximum(t.data, BETA_FLOOR, out=t.data)
            elif name.endswith(".gamma"):
                np.maximum(t.data, 0.0, out=t.data)
            elif name.startswith("scale."):
                np.maximum(t.data, SCALE_FLOOR, out=t.data)

    # -- forward maps ----------------------------------------------------------

    def modulation_vectors(self, lambda_hat):
        """Encoder-side per-stage positive scaling vectors m_k(lambda)."""
        return [net(lambda_hat) for net in self.mod_nets]

    def demodulation_vectors(self, lambda_hat):
        """Decoder-side vectors; parameters are independent of the encoder's."""
        return [net(lambda_hat) for net in self.demod_nets]

    def encode(self, x, lam):
        """Image batch (N, 3, H, W) in [0, 1] -> latent (N, C, H/16, W/16)
        at tradeoff ``lam``, a member of the model's set.

        Spatial sides must be multiples of 16 (the caller pads).  In mode
        "mae" the stages are modulated by the normalized tradeoff; in mode
        "bottleneck" the latent is scaled by the tradeoff's vector.
        """
        lambda_hat = self.tradeoffs.normalized(lam)
        if x.ndim != 4 or x.shape[1] != IMAGE_CHANNELS:
            raise ContractViolation(f"encode expects (N, 3, H, W), got {x.shape}")
        if x.shape[2] % DOWNSAMPLE or x.shape[3] % DOWNSAMPLE:
            raise ContractViolation(
                f"spatial sides must be multiples of {DOWNSAMPLE}, got {x.shape[2]}x{x.shape[3]}"
            )
        mods = self.modulation_vectors(lambda_hat) if self.mode == "mae" else None
        p = self._params
        h = x
        for i, (_, stride, pad) in enumerate(ENCODER_STAGES):
            h = T.channel_shift(T.conv2d(h, p[f"encoder.conv{i}.kernel"], stride, pad),
                                p[f"encoder.conv{i}.bias"])
            if mods is not None:
                h = T.channel_scale(h, mods[i])
            h = gdn_forward(h, p[f"encoder.gdn{i}.beta"], p[f"encoder.gdn{i}.gamma"])
        if self.mode == "bottleneck":
            # finer effective quantization bins for larger s
            h = T.channel_scale(h, self._scale(lam))
        return h

    def decode(self, z, lam, clamp=False):
        """Latent (N, C, h, w) -> image batch (N, 3, 16h, 16w) at tradeoff
        ``lam``, a member of the model's set.

        Mode "bottleneck" first undoes the scaling with the elementwise
        reciprocal 1 / s; mode "mae" demodulates.  ``clamp`` clips to
        [0, 1] for inference; the training path leaves the output
        unclamped so gradients flow.
        """
        lambda_hat = self.tradeoffs.normalized(lam)
        if z.ndim != 4 or z.shape[1] != self.config.channels:
            raise ContractViolation(
                f"decode expects (N, {self.config.channels}, h, w), got {z.shape}"
            )
        h = z
        if self.mode == "bottleneck":
            s_vec = self._scale(lam)
            h = T.channel_scale(h, T.div(T.Tensor(np.ones_like(s_vec.data)), s_vec))
        demods = None
        if self.mode == "mae":
            demods = self.demodulation_vectors(lambda_hat)
            h = T.channel_scale(h, demods[0])
        p = self._params
        for i, (_, stride, pad) in enumerate(DECODER_STAGES):
            h = T.channel_shift(
                T.conv2d_transpose(h, p[f"decoder.tconv{i}.kernel"], stride, pad),
                p[f"decoder.tconv{i}.bias"])
            if i < len(DECODER_STAGES) - 1:
                if demods is not None:
                    h = T.channel_scale(h, demods[i + 1])
                h = igdn_forward(h, p[f"decoder.igdn{i}.beta"], p[f"decoder.igdn{i}.gamma"])
        if clamp:
            h = T.Tensor(np.clip(h.data, 0.0, 1.0))
        return h

    def _scale(self, lam):
        """The tradeoff's bottleneck scale vector, checked strictly positive."""
        s_vec = self._params[f"scale.{float(lam):g}"]
        if np.any(s_vec.data <= 0):
            idx = int(np.argwhere(s_vec.data <= 0)[0][0])
            raise ContractViolation(f"scaling vector must be strictly positive; entry {idx} is not")
        return s_vec


def param_count(model_or_config, tradeoffs=None):
    """Exact per-component parameter counts.

    Accepts a CodecModel or a CodecConfig (the count is a pure function
    of the architecture).  Returns a dict with the shared autoencoder +
    entropy model, the modulation overhead, the scaling-table overhead,
    and derived totals.
    """
    if isinstance(model_or_config, CodecModel):
        named = model_or_config.parameters()
        shared = sum(t.size for n, t in named.items() if not n.startswith(TRADEOFF_PARAMS))
        scaling = sum(t.size for n, t in named.items() if n.startswith("scale."))
        modulation = sum(t.size for t in named.values()) - shared - scaling
        n_tradeoffs = len(model_or_config.tradeoffs)
    else:
        config = model_or_config
        tr = tradeoffs if tradeoffs is not None else TradeoffSet()
        c = config.channels
        shared = 0
        in_ch = IMAGE_CHANNELS
        for k, _, _ in ENCODER_STAGES:
            shared += c * in_ch * k * k + c        # conv kernel + bias
            shared += c + c * c                    # GDN beta + gamma
            in_ch = c
        for i, (k, _, _) in enumerate(DECODER_STAGES):
            out_ch = IMAGE_CHANNELS if i == len(DECODER_STAGES) - 1 else c
            shared += c * out_ch * k * k + out_ch  # tconv kernel + bias
            if i < len(DECODER_STAGES) - 1:
                shared += c + c * c                # IGDN beta + gamma
        per_channel = (3 * 1 + 3 * 3 + 3 * 3 + 1 * 3) + (3 + 3 + 3 + 1) + (3 + 3 + 3)
        shared += per_channel * c                  # factorized density
        per_net = (1 * config.mod_hidden + config.mod_hidden) + (config.mod_hidden * c + c)
        modulation = 6 * per_net
        scaling = len(tr) * c
        n_tradeoffs = len(tr)

    mae_total = shared + modulation
    return {
        "shared": shared,
        "modulation": modulation,
        "scaling": scaling,
        "mae_total": mae_total,
        "bottleneck_total": shared + scaling,
        "independent_total": n_tradeoffs * shared,
    }
