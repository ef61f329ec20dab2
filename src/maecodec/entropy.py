"""Quantization, its uniform-noise training proxy, the learned factorized
density over latent channels, and fixed-point CDF tables for real coding.

The density models each channel with a monotone scalar cumulative built
from three width-3 stages of positive-weight affine maps with tanh
couplings, closed by a sigmoid.  Bin probabilities are differences of the
cumulative at half-integer edges, blended with a tiny uniform floor so
that no symbol ever costs infinite bits and the bin masses over the
support stay a sub-distribution.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .exceptions import ContractViolation, SupportRangeError

PROB_FLOOR = 2.0 ** -24
TOTAL_FREQ = 1 << 16
DEFAULT_SUPPORT = 255
_SUPPORT_LIMIT = 1 << 14
_FILTERS = (3, 3, 3)
_INIT_SCALE = 10.0


def quantize(z):
    """Elementwise round to nearest integer, ties away from zero.

    Accepts a Tensor or ndarray; returns an int32 ndarray.  Not
    differentiable; training uses add_uniform_noise instead.
    """
    data = z.data if isinstance(z, T.Tensor) else np.asarray(z)
    return np.trunc(data + np.copysign(0.5, data)).astype(np.int32)


def add_uniform_noise(z, rng):
    """Training proxy for rounding: z + u with u ~ U[-1/2, 1/2) iid.

    The noise is held constant for gradients, so d(z_tilde)/dz = I.
    """
    noise = rng.uniform(-0.5, 0.5, size=z.shape).astype(z.dtype)
    return T.add(z, T.Tensor(noise))


class FactorizedDensity:
    """Learned per-channel density over (noisy) quantized latent values.

    Reads its tensors ``density.matrix{i}``, ``density.bias{i}`` and
    ``density.gate{i}`` by name from ``params``, which may be a whole
    codec model's parameter store.
    """

    def __init__(self, params):
        self.params = params
        self.channels = params["density.matrix0"].shape[0]

    def parameters(self):
        return {name: t for name, t in self.params.items() if name.startswith("density.")}

    def cumulative(self, t):
        """Monotone cumulative c(t) for t of shape (C, 1, M), in (0, 1)."""
        if t.ndim != 3 or t.shape[0] != self.channels or t.shape[1] != 1:
            raise ContractViolation(
                f"cumulative expects ({self.channels}, 1, M), got {t.shape}"
            )
        p = self.params
        h = t
        for i in range(len(_FILTERS) + 1):
            h = T.add(T.channel_matmul(T.softplus(p[f"density.matrix{i}"]), h),
                      p[f"density.bias{i}"])
            if i < len(_FILTERS):
                h = T.tanh_coupling(h, p[f"density.gate{i}"])
        return T.sigmoid(h)


def initial_values(start, shape, rng):
    """A parameter-table row's float64 initial values: ``start`` is ("constant",
    v), ("identity", v) for v * I, or a draw from ``rng``, ("normal", mean,
    std) or ("uniform", low, high)."""
    kind, *args = start
    if kind == "constant":
        return np.full(shape, args[0])
    if kind == "identity":
        return args[0] * np.eye(shape[0])
    return getattr(rng, kind)(*args, size=shape)


def density_table(channels):
    """The (name, shape, start) rows of the density's tensors, in creation
    order; the initial cumulative ramps over roughly [-10, 10]."""
    dims = (1,) + _FILTERS + (1,)
    scale = _INIT_SCALE ** (1.0 / (len(_FILTERS) + 1))
    out = [(channels, d, 1) for d in dims[1:]]  # each stage's bias and gate
    return ([(f"density.matrix{i}", (channels, d, dims[i]),
              ("constant", np.log(np.expm1(1.0 / scale / d)))) for i, d in enumerate(dims[1:])]
            + [(f"density.bias{i}", s, ("uniform", -0.5, 0.5)) for i, s in enumerate(out)]
            + [(f"density.gate{i}", s, ("constant", 0.0)) for i, s in enumerate(out[:-1])])


def init_density(channels, dtype=np.float32, rng=None):
    """The density at the start of density_table(channels)."""
    rng = np.random.default_rng(0) if rng is None else rng
    return FactorizedDensity({
        name: T.Tensor(initial_values(start, shape, rng).astype(dtype), requires_grad=True)
        for name, shape, start in density_table(channels)})


def _channel_major(values):
    # (N, C, H, W) -> (C, 1, N*H*W)
    n, c, h, w = values.shape
    flat = T.transpose(values, (1, 0, 2, 3))
    return T.reshape(flat, (c, 1, n * h * w))


def bin_probabilities(values, density):
    """P(bin containing each value): c(v + 1/2) - c(v - 1/2), floored.

    ``values`` is an NCHW Tensor of latent samples (integer or noisy).
    The raw difference is blended with a uniform floor sized to the 2L + 1
    bins of L = DEFAULT_SUPPORT, so every probability is >= 2^-24 and the
    masses over [-L, L] sum to at most 1.  Returns a Tensor shaped like ``values``.
    """
    if values.ndim != 4:
        raise ContractViolation(f"bin_probabilities expects NCHW, got {values.shape}")
    if values.shape[1] != density.channels:
        raise ContractViolation(
            f"channel mismatch: values have {values.shape[1]}, density has {density.channels}"
        )
    cm = _channel_major(values)
    upper = density.cumulative(T.add(cm, 0.5))
    lower = density.cumulative(T.sub(cm, 0.5))
    raw = T.sub(upper, lower)
    bins = 2 * DEFAULT_SUPPORT + 1
    mix = float(bins) * PROB_FLOOR
    p = T.add(T.mul(raw, 1.0 - mix), PROB_FLOOR)
    n, c, h, w = values.shape
    return T.transpose(T.reshape(p, (c, n, h, w)), (1, 0, 2, 3))


def rate_bits(z_tilde, density):
    """Total information content in bits: sum of -log2 P over elements.

    Differentiable with respect to both the latent samples and the
    density parameters.
    """
    return T.reduce_sum(T.neg(T.log2(bin_probabilities(z_tilde, density))))


class CdfTable:
    """Fixed-point cumulative frequencies for one channel.

    ``cum`` has length symbols + 1, starts at 0, ends at 65536, strictly
    increasing (every symbol frequency >= 1).  Symbol index v maps a
    latent integer q = v - offset ... i.e. q in [-L, L] is coded as
    q + offset with offset = L.
    """

    __slots__ = ("cum", "offset", "_freqs")

    def __init__(self, cum, offset):
        self.cum = np.asarray(cum, dtype=np.int64)
        self.offset = int(offset)
        if self.cum[0] != 0 or self.cum[-1] != TOTAL_FREQ:
            raise ContractViolation("CdfTable must span exactly [0, 65536]")
        self._freqs = np.diff(self.cum)
        if np.any(self._freqs < 1):
            raise ContractViolation("CdfTable frequencies must all be >= 1")
        self._freqs.setflags(write=False)

    @property
    def num_symbols(self):
        return len(self.cum) - 1

    def frequencies(self):
        """Each symbol's frequency, cum[v + 1] - cum[v]: the int64 array the
        constructor checked, computed once and read-only."""
        return self._freqs

    def bits_for(self, symbols):
        """Cross-entropy of a symbol sequence under this table, in bits."""
        freqs = self.frequencies()[symbols]
        return float(-np.log2(freqs / TOTAL_FREQ).sum())


def _quantize_pmfs(pmfs):
    """16-bit cumulative frequencies for each row of a (C, n) pmf array:
    floor-then-largest-residual, minimum 1 each.  Returns (C, n+1) int64.

    A floor sum below 65536 hands one count to each of the bins with the
    largest residuals, ties by lower index.  A floor sum above it (every
    trained density: the 2^-24 floor and the minimum of 1 inflate it)
    comes down in passes, each taking 1 from every frequency above 1,
    largest first with ties by lower index, until the excess is gone.
    After k full passes a bin has lost min(k, base-1), so each row's k is
    read off its sorted excesses and only the last, partial pass is played
    out, by rank in that order.
    """
    rows, n = pmfs.shape
    if n > TOTAL_FREQ:
        raise ContractViolation(
            f"{n} bins cannot each keep a frequency of 1 out of {TOTAL_FREQ}")
    scaled = pmfs * TOTAL_FREQ
    base = np.floor(scaled).astype(np.int64)
    np.maximum(base, 1, out=base)
    deficit = TOTAL_FREQ - base.sum(axis=1, keepdims=True)
    up, down = deficit[:, 0] > 0, deficit[:, 0] < 0
    residual = scaled[up] - np.floor(scaled[up])
    base[up] += _first_in_order(-residual, deficit[up])
    # k full passes take sum(min(excess, k)); at[j] is that sum at k =
    # ordered[j], so k lies in [ordered[j-1], ordered[j]) for the j with
    # at[j-1] <= take < at[j], where a pass takes n - j.  Taking every
    # excess (take = at[n-1]) gives the same k from j = n - 1.
    excess, take = base[down] - 1, -deficit[down]
    ordered = np.sort(excess, axis=1)
    below = np.zeros((len(take), n + 1), dtype=np.int64)  # sums of the j smallest
    np.cumsum(ordered, axis=1, out=below[:, 1:])
    at = below[:, :-1] + ordered * (n - np.arange(n))
    j = np.minimum(np.sum(at <= take, axis=1, keepdims=True), n - 1)
    spent = np.minimum(excess, (take - np.take_along_axis(below, j, axis=1)) // (n - j))
    excess -= spent
    take -= spent.sum(axis=1, keepdims=True)
    # the partial pass: spent-out bins rank after every other, and more
    # than take bins still have an excess
    excess -= _first_in_order(-excess, take)
    base[down] = excess + 1
    cum = np.zeros((rows, n + 1), dtype=np.int64)
    np.cumsum(base, axis=1, out=cum[:, 1:])
    return cum


def _first_in_order(keys, counts):
    """Mask of the first counts[r] entries of each row r in the row's stable
    ascending order of ``keys``."""
    rows, n = keys.shape
    order = np.argsort(keys, axis=1, kind="stable")
    order += np.arange(0, rows * n, n)[:, None]
    mask = np.zeros(rows * n, dtype=bool)
    mask[order[np.arange(n) < counts]] = True
    return mask.reshape(rows, n)


def _grid_pmfs(density, support):
    """Per-channel bin masses on the integer grid [-L, L], tails folded
    into the edge bins.  Returns (pmfs (C, 2L+1) float64, in-range mass),
    both read-only.

    The density keeps its last grid, reused while the support and the
    parameters are unchanged: choose_support followed by build_cdf_tables
    evaluates it once.
    """
    key = (support, b"".join(t.data.tobytes() for t in density.parameters().values()))
    kept = getattr(density, "_kept_grid", None)
    if kept is not None and kept[0] == key:
        return kept[1]
    # edges -L-1/2, -L+1/2, ..., L+1/2
    edges = np.arange(-support, support + 2, dtype=np.float64) - 0.5
    c = density.channels
    grid = np.broadcast_to(edges, (c, 1, len(edges))).astype(np.float64)
    cdf = density.cumulative(T.Tensor(grid)).data.reshape(c, len(edges)).astype(np.float64)
    mass = cdf[:, -1] - cdf[:, 0]
    pmf = np.diff(cdf, axis=1)
    pmf[:, 0] += cdf[:, 0]          # fold lower tail
    pmf[:, -1] += 1.0 - cdf[:, -1]  # fold upper tail
    np.maximum(pmf, PROB_FLOOR, out=pmf)
    pmf.setflags(write=False)
    mass.setflags(write=False)
    density._kept_grid = (key, (pmf, mass))
    return pmf, mass


def build_cdf_tables(density, support):
    """Deterministic fixed-point CDF tables for every channel over the
    symbols [-support, support].

    Raises SupportRangeError if [-L, L] misses more than 1e-6 of any
    channel's probability mass.
    """
    pmfs, mass = _grid_pmfs(density, support)
    worst = float(mass.min())
    if worst < 1.0 - 1e-6:
        raise SupportRangeError(
            f"support [-{support}, {support}] captures only {worst:.8f} of the "
            f"probability mass; rebuild with a larger L"
        )
    return [CdfTable(cum, support) for cum in _quantize_pmfs(pmfs)]


def choose_support(density):
    """Smallest L of 255, 511, 1023, ..., 16383 that passes the mass check.

    Deterministic in the density parameters, so encoder and decoder agree.
    """
    support = DEFAULT_SUPPORT
    while support <= _SUPPORT_LIMIT:
        _, mass = _grid_pmfs(density, support)
        if float(mass.min()) >= 1.0 - 1e-6:
            return support
        support = support * 2 + 1
    raise SupportRangeError(f"no support up to {_SUPPORT_LIMIT} captures the probability mass")
