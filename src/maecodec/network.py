"""The shared convolutional autoencoder and its tradeoff conditioning.

Encoder: three conv stages (9x9 stride 4, then two 5x5 stride 2), each
followed by GDN, for a total downsampling factor of 16.  Decoder mirrors
with transposed convs and IGDN; the final stage maps back to RGB.

The variants differ only in their row of ``CONDITIONING``, the
per-tradeoff vectors that multiply the channels at its sites: none in
"plain"; perceptrons of the normalized tradeoff at every site but the
latent in "mae"; the tradeoff's learned vector on the latent and its
reciprocal on the decoder's input in "bottleneck".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .entropy import FactorizedDensity, density_table, initial_values
from .exceptions import ContractViolation
from .gdn import BETA_FLOOR, gdn_forward, igdn_forward

# (kernel, stride, padding) per encoder stage; the decoder mirrors them
ENCODER_STAGES = ((9, 4, 4), (5, 2, 2), (5, 2, 2))
DECODER_STAGES = ENCODER_STAGES[::-1]
DOWNSAMPLE = 16
IMAGE_CHANNELS = 3

SCALE_FLOOR = 1e-4


@dataclass(frozen=True)
class CodecConfig:
    """Architecture hyperparameters; everything else is fixed topology."""

    channels: int = 192
    mod_hidden: int = 50

    def __post_init__(self):
        if not all(type(v) is int and v >= 1 for v in (self.channels, self.mod_hidden)):
            raise ContractViolation(f"channels and mod_hidden must be positive ints, got {self}")


@dataclass(frozen=True)
class TradeoffSet:
    """The discrete tradeoff grid, uniformly weighted, max-normalized."""

    lambdas: tuple = (64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0)

    def __post_init__(self):
        lams = tuple(float(v) for v in self.lambdas)
        if not all(math.isfinite(v) for v in lams):
            raise ContractViolation(f"tradeoffs must be finite, got {lams}")
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

    def __call__(self, lambda_hat):
        if not 0.0 < lambda_hat <= 1.0:
            raise ContractViolation(f"normalized tradeoff must be in (0, 1], got {lambda_hat}")
        x = T.Tensor(np.array([[lambda_hat]], dtype=self.w1.dtype))
        h = T.relu(T.affine(x, self.w1, self.b1))
        return T.reshape(T.exp(T.affine(h, self.w2, self.b2)), (self.w2.shape[1],))


# conditioning sites, in forward order: after each encoder conv (before its
# GDN), the latent (after the last GDN), the decoder's input, and after each
# of the first two transposed convs (before its IGDN).  CONDITIONING maps a
# mode to {site: (kind, ref)}, the per-tradeoff vector that multiplies the
# channels there: a "perceptron" of lambda / max(lambdas), the ModulationNet
# with tensors ref + w1, b1, w2, b2; the tradeoff's own "learned" vector
# ref + f"{lam:g}"; or the "reciprocal" of site ref's vector.
ENCODER_SITES = ("encoder0", "encoder1", "encoder2", "latent")
DECODER_SITES = ("decoder_input", "decoder0", "decoder1")
CONDITIONING = {
    "mae": {
        "encoder0": ("perceptron", "modulate0."),
        "encoder1": ("perceptron", "modulate1."),
        "encoder2": ("perceptron", "modulate2."),
        "decoder_input": ("perceptron", "demodulate0."),
        "decoder0": ("perceptron", "demodulate1."),
        "decoder1": ("perceptron", "demodulate2."),
    },
    "plain": {},
    # finer effective quantization bins for larger s
    "bottleneck": {"latent": ("learned", "scale."), "decoder_input": ("reciprocal", "latent")},
}
MODES = tuple(CONDITIONING)


def parameter_table(config, tradeoffs, mode):
    """The one description of the parameters: the (name, shape, start) row
    of every learnable tensor of a ``mode`` model, in creation order (the
    autoencoder, the density, then the conditioning rows a plain model
    lacks), ``start`` its initial value as entropy.initial_values reads it."""
    if mode not in MODES:
        raise ContractViolation(f"mode must be one of {MODES}, got {mode!r}")
    c, hidden = config.channels, config.mod_hidden
    zeros, ones = ("constant", 0.0), ("constant", 1.0)

    def gdn(prefix, count):  # near the identity: beta = 1, gamma = 0.1 * I
        return [row for i in range(count) for row in (
            (f"{prefix}{i}.beta", (c,), ones), (f"{prefix}{i}.gamma", (c, c), ("identity", 0.1)))]

    rows = []
    in_ch = IMAGE_CHANNELS
    for i, (k, _, _) in enumerate(ENCODER_STAGES):
        std = (1.0 / (in_ch * k * k)) ** 0.5
        rows += [(f"encoder.conv{i}.kernel", (c, in_ch, k, k), ("normal", 0.0, std)),
                 (f"encoder.conv{i}.bias", (c,), zeros)]
        in_ch = c
    rows += gdn("encoder.gdn", len(ENCODER_STAGES))
    for i, (k, stride, _) in enumerate(DECODER_STAGES):
        out_ch = IMAGE_CHANNELS if i == len(DECODER_STAGES) - 1 else c
        std = (stride * stride / (c * k * k)) ** 0.5
        rows += [(f"decoder.tconv{i}.kernel", (c, out_ch, k, k), ("normal", 0.0, std)),
                 (f"decoder.tconv{i}.bias", (out_ch,), zeros)]
    rows += gdn("decoder.igdn", len(DECODER_STAGES) - 1) + density_table(c)
    for kind, ref in CONDITIONING[mode].values():
        if kind == "perceptron":
            # small, nonzero second layer: starts close to exp(0) = 1 while
            # keeping ReLU units alive so gradients reach the first layer
            rows += [(ref + "w1", (1, hidden), ("normal", 0.0, 0.5)),
                     (ref + "b1", (hidden,), ("constant", 0.1)),
                     (ref + "w2", (hidden, c), ("normal", 0.0, 0.01)), (ref + "b2", (c,), zeros)]
        elif kind == "learned":
            # the names are checkpoint keys: tradeoffs that agree to 6
            # significant digits would share one vector
            names = [f"{ref}{lam:g}" for lam in tradeoffs]
            if len(set(names)) != len(names):
                raise ContractViolation(
                    f"tradeoffs {tradeoffs.lambdas} give colliding vector names {names}")
            rows += [(name, (c,), ones) for name in names]
    return rows


class CodecModel:
    """The parameters and forward maps of one trained codec.

    ``mode`` selects the variant, a row of ``CONDITIONING``.  ``encode``
    and ``decode`` take a tradeoff from the model's set and multiply the
    channels at each conditioning site by the vector the row holds there.

    Every learnable tensor lives in one name -> Tensor dict, under its
    checkpoint name in parameter_table's order; the forward maps, the
    density and the conditioning vectors read their tensors from it by name.
    """

    def __init__(self, config, tradeoffs, mode, dtype=np.float32, seed=0):
        # drawn in table order; the density draws from a generator of its own
        rng, density_rng = (np.random.default_rng([int(seed), k]) for k in (0x6D6165, 0x64656E))
        self._bind(config, tradeoffs, mode, dtype, {
            name: initial_values(start, shape, density_rng if name.startswith("density.") else rng)
            for name, shape, start in parameter_table(config, tradeoffs, mode)})

    @classmethod
    def from_arrays(cls, config, tradeoffs, mode, arrays, dtype):
        """The model holding ``arrays`` (name -> ndarray) as its parameters,
        cast to ``dtype``.  Their names and shapes are checked against
        parameter_table before anything is allocated, and nothing is drawn."""
        shapes = {name: shape for name, shape, _ in parameter_table(config, tradeoffs, mode)}
        given = {name: tuple(values.shape) for name, values in arrays.items()}
        if given != shapes:
            wrong = sorted({name for name, _ in shapes.items() ^ given.items()})
            raise ContractViolation("parameters do not match the architecture: " + ", ".join(
                f"{n} {given.get(n, 'missing')} (expected {shapes.get(n, 'none')})" for n in wrong))
        model = cls.__new__(cls)
        model._bind(config, tradeoffs, mode, dtype, {name: arrays[name] for name in shapes})
        return model

    def _bind(self, config, tradeoffs, mode, dtype, arrays):
        self.config, self.tradeoffs, self.mode = config, tradeoffs, mode
        self.conditioning = CONDITIONING[mode]
        self.dtype = np.dtype(dtype).type
        p = self._params = {
            name: T.Tensor(np.ascontiguousarray(values, dtype=self.dtype), requires_grad=True)
            for name, values in arrays.items()}
        self.density = FactorizedDensity(p)
        # conditioning parameter name -> the tradeoff it serves alone, or None
        plain = {name for name, _, _ in parameter_table(config, tradeoffs, "plain")}
        own = {f"{ref}{lam:g}": lam for kind, ref in self.conditioning.values()
               if kind == "learned" for lam in tradeoffs}
        self.tradeoff_params = {name: own.get(name) for name in p if name not in plain}
        # the perceptrons on each side, for inspection
        self.mod_nets, self.demod_nets = (
            [ModulationNet(p, self.conditioning[site][1]) for site in sites
             if self.conditioning.get(site, ("",))[0] == "perceptron"]
            for sites in (ENCODER_SITES, DECODER_SITES))

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
        offsets to >= BETA_FLOOR, GDN couplings and learned per-tradeoff
        vectors to their floors.  Called after every optimizer step."""
        for name, t in self._params.items():
            if name.endswith(".beta"):
                np.maximum(t.data, BETA_FLOOR, out=t.data)
            elif name.endswith(".gamma"):
                np.maximum(t.data, 0.0, out=t.data)
            elif self.tradeoff_params.get(name) is not None:
                np.maximum(t.data, SCALE_FLOOR, out=t.data)

    # -- forward maps ----------------------------------------------------------

    def _condition(self, h, site, lam):
        """``h`` times the mode's vector at ``site``, if it has one there."""
        if site not in self.conditioning:
            return h
        return T.mul(h, T.reshape(self._vector(site, lam), (1, h.shape[1], 1, 1)))

    def _vector(self, site, lam):
        """The mode's vector at ``site`` for tradeoff ``lam``, built here."""
        kind, ref = self.conditioning[site]
        if kind == "perceptron":
            return ModulationNet(self._params, ref)(self.tradeoffs.normalized(lam))
        if kind == "reciprocal":
            v = self._vector(ref, lam)
            return T.div(T.Tensor(np.ones_like(v.data)), v)
        s_vec = self._params[f"{ref}{float(lam):g}"]  # learned
        if np.any(s_vec.data <= 0):
            idx = int(np.argwhere(s_vec.data <= 0)[0][0])
            raise ContractViolation(f"scaling vector must be strictly positive; entry {idx} is not")
        return s_vec

    def encode(self, x, lam):
        """Image batch (N, 3, H, W) in [0, 1] -> latent (N, C, H/16, W/16)
        at tradeoff ``lam``, a member of the model's set.

        Spatial sides must be multiples of 16 (the caller pads).
        """
        self.tradeoffs.normalized(lam)  # rejects a tradeoff outside the set
        if x.ndim != 4 or x.shape[1] != IMAGE_CHANNELS:
            raise ContractViolation(f"encode expects (N, 3, H, W), got {x.shape}")
        if x.shape[2] % DOWNSAMPLE or x.shape[3] % DOWNSAMPLE:
            raise ContractViolation(
                f"spatial sides must be multiples of {DOWNSAMPLE}, got {x.shape[2]}x{x.shape[3]}"
            )
        p = self._params
        h = x
        for i, (_, stride, pad) in enumerate(ENCODER_STAGES):
            h = T.conv2d(h, p[f"encoder.conv{i}.kernel"], stride, pad)
            h = T.add(h, T.reshape(p[f"encoder.conv{i}.bias"], (1, h.shape[1], 1, 1)))
            h = self._condition(h, ENCODER_SITES[i], lam)
            h = gdn_forward(h, p[f"encoder.gdn{i}.beta"], p[f"encoder.gdn{i}.gamma"])
        return self._condition(h, ENCODER_SITES[-1], lam)

    def decode(self, z, lam, clamp=False):
        """Latent (N, C, h, w) -> image batch (N, 3, 16h, 16w) at tradeoff
        ``lam``, a member of the model's set.

        ``clamp`` clips to [0, 1] for inference; the training path leaves
        the output unclamped so gradients flow.
        """
        self.tradeoffs.normalized(lam)
        if z.ndim != 4 or z.shape[1] != self.config.channels:
            raise ContractViolation(
                f"decode expects (N, {self.config.channels}, h, w), got {z.shape}"
            )
        h = self._condition(z, DECODER_SITES[0], lam)
        p = self._params
        for i, (_, stride, pad) in enumerate(DECODER_STAGES):
            h = T.conv2d_transpose(h, p[f"decoder.tconv{i}.kernel"], stride, pad)
            h = T.add(h, T.reshape(p[f"decoder.tconv{i}.bias"], (1, h.shape[1], 1, 1)))
            if i < len(DECODER_STAGES) - 1:
                h = self._condition(h, DECODER_SITES[i + 1], lam)
                h = igdn_forward(h, p[f"decoder.igdn{i}.beta"], p[f"decoder.igdn{i}.gamma"])
        if clamp:
            h = T.Tensor(np.clip(h.data, 0.0, 1.0))
        return h


def param_count(config, tradeoffs=None):
    """Exact per-component parameter counts of the architecture ``config``
    over ``tradeoffs`` (default: the seven-point set), summed over
    parameter_table.

    Returns a dict with the shared autoencoder + entropy model, the
    conditioning overheads of modes mae ("modulation") and bottleneck
    ("scaling"), and derived totals.
    """
    tr = tradeoffs if tradeoffs is not None else TradeoffSet()
    size = {mode: sum(math.prod(shape) for _, shape, _ in parameter_table(config, tr, mode))
            for mode in MODES}
    return {
        "shared": size["plain"],
        "modulation": size["mae"] - size["plain"],
        "scaling": size["bottleneck"] - size["plain"],
        "mae_total": size["mae"],
        "bottleneck_total": size["bottleneck"],
        "independent_total": len(tr) * size["plain"],
    }
