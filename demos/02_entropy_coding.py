"""From a learned density to a real byte stream and back.

Fits the factorized density to synthetic latent samples, freezes it into
16-bit CDF tables, range-codes a quantized tensor, and compares the coded
length with the differentiable rate estimate used during training.

Run:  python demos/02_entropy_coding.py
"""

import numpy as np

from maecodec import tensor as T
from maecodec.entropy import (add_uniform_noise, build_cdf_tables, choose_support,
                              init_density, quantize, rate_bits)
from maecodec.rangecoder import rc_decode, rc_encode
from maecodec.training import Adam

rng = np.random.default_rng(1)
CHANNELS = 4

# latent-like source: zero-centered, per-channel spreads
spreads = np.array([0.8, 1.5, 3.0, 6.0]).reshape(1, CHANNELS, 1, 1)

density = init_density(CHANNELS, dtype=np.float64, rng=rng)
params = list(density.parameters().values())
opt = Adam(params)

print("fitting the density to the source (uniform-noise proxy)...")
for step in range(600):
    z = T.Tensor(rng.normal(size=(1, CHANNELS, 16, 16)) * spreads)
    with T.GradientTape() as tape:
        bits = rate_bits(add_uniform_noise(z, rng), density)
    opt.step(tape.backward(bits, params=params), 5e-3)
    if step % 150 == 0:
        print(f"  step {step:4d}: {bits.item() / z.size:.3f} bits/element")

support = choose_support(density)
tables = build_cdf_tables(density, support)
print(f"\nsupport chosen: [-{support}, {support}], "
      f"{len(tables)} channel tables, 16-bit totals")

# quantize a fresh sample and code it for real
z = rng.normal(size=(CHANNELS, 24, 24)) * spreads[0]
q = quantize(z)
symbols = (q + support).ravel()  # channel-major: one run per channel table
payload = rc_encode(symbols, tables)
decoded = rc_decode(payload, tables, len(symbols)).reshape(q.shape) - support
assert np.array_equal(decoded, q), "range coder must be lossless"

estimate = rate_bits(T.Tensor(q[None].astype(np.float64)), density).item()
print(f"\ncoded payload:   {len(payload) * 8} bits")
print(f"rate estimate:   {estimate:.1f} bits "
      f"({abs(len(payload) * 8 - estimate) / (len(payload) * 8):.2%} apart)")
print("round trip exact: True")
