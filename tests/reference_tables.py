"""Known-answer references for the CDF-table path.

``quantize_pmf`` is the plain pass-by-pass form of the codec's pmf
quantizer: floor, minimum 1, then hand out or take back single counts
bin by bin.  It is far too slow for real tables (a Python loop over every
bin, once per pass), but it states the rule in a dozen lines, which is
the point: the codec's version must return the same table for every pmf.

``BoxDensity`` is a density whose bin masses are known in closed form,
for rate and table tests.
"""

import numpy as np

from maecodec import tensor as T
from maecodec.entropy import TOTAL_FREQ


def quantize_pmf(pmf):
    """16-bit frequencies: floor-then-largest-residual, minimum 1 each."""
    scaled = pmf * TOTAL_FREQ
    base = np.floor(scaled).astype(np.int64)
    np.maximum(base, 1, out=base)
    deficit = TOTAL_FREQ - int(base.sum())
    if deficit > 0:
        residual = scaled - np.floor(scaled)
        # stable order: largest residual first, ties by lower index
        order = np.lexsort((np.arange(len(pmf)), -residual))
        base[order[:deficit]] += 1
    elif deficit < 0:
        take = -deficit
        while take > 0:
            order = np.lexsort((np.arange(len(pmf)), -base))
            for idx in order:
                if take == 0:
                    break
                if base[idx] > 1:
                    base[idx] -= 1
                    take -= 1
    cum = np.zeros(len(pmf) + 1, dtype=np.int64)
    np.cumsum(base, out=cum[1:])
    return cum


class BoxDensity:
    """Uniform density over [-half_width, half_width).

    Exposes the same cumulative interface as FactorizedDensity so
    rate estimation and table building can run against a known-shape
    density (each interior integer bin gets mass 1 / (2 * half_width)).
    """

    def __init__(self, half_width=128):
        self.half_width = float(half_width)
        self.channels = 1

    def parameters(self):
        return {}

    def cumulative(self, t):
        ramp = (t.data + self.half_width) / (2.0 * self.half_width)
        return T.Tensor(np.clip(ramp, 0.0, 1.0))
