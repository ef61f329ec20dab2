"""Generalized divisive normalization and its multiplicative inverse.

GDN divides each channel by a learned norm pooled across channels at the
same spatial site; IGDN multiplies by it.  The decoder's IGDN learns its
own parameters, it is not an analytic inverse of the encoder's GDN.

The parameters are a per-channel offset ``beta`` (kept >= BETA_FLOOR)
and a nonnegative channel-coupling matrix ``gamma`` of shape (C, C).
"""

from __future__ import annotations

from . import tensor as T
from .exceptions import ContractViolation

BETA_FLOOR = 1e-6


def _pooled_norm(x, beta, gamma):
    channels = beta.shape[0]
    if beta.ndim != 1 or gamma.shape != (channels, channels):
        raise ContractViolation(
            f"GDN needs beta (C,) and gamma (C, C), got {beta.shape} and {gamma.shape}")
    if x.ndim != 4 or x.shape[1] != channels:
        raise ContractViolation(
            f"GDN channel mismatch: input {x.shape} vs {channels} parameter channels"
        )
    energy = T.square(x)
    mixed = T.conv2d(energy, T.reshape(gamma, (channels, channels, 1, 1)))
    return T.sqrt(T.add(mixed, T.reshape(beta, (1, channels, 1, 1))))


def gdn_forward(x, beta, gamma):
    """y_i = x_i / sqrt(beta_i + sum_j gamma_ij * x_j^2), per spatial site."""
    return T.div(x, _pooled_norm(x, beta, gamma))


def igdn_forward(x, beta, gamma):
    """y_i = x_i * sqrt(beta_i + sum_j gamma_ij * x_j^2), per spatial site."""
    return T.mul(x, _pooled_norm(x, beta, gamma))
