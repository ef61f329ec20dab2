"""Reconstruction quality metrics: PSNR and multi-scale SSIM.

MS-SSIM uses five dyadic scales with the standard literature weights, an
11x11 Gaussian window with sigma 1.5, and is computed on Rec.601 luma.
Both metrics report dB capped at 99 (identical inputs would otherwise be
infinite).  The window is the outer product of a 1-D Gaussian, so it is
applied as two 1-D passes in numpy.
"""

from __future__ import annotations

import warnings

import numpy as np

from .exceptions import ContractViolation

DB_CAP = 99.0
MSSSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
_WINDOW_SIZE = 11
_WINDOW_SIGMA = 1.5
_K1, _K2 = 0.01, 0.03


def psnr(x, x_hat):
    """10*log10(1/MSE) for images in [0, 1]; 99 dB cap."""
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x.shape != x_hat.shape:
        raise ContractViolation(f"psnr shape mismatch: {x.shape} vs {x_hat.shape}")
    mse = float(np.mean((x - x_hat) ** 2))
    if mse == 0.0:
        return DB_CAP
    return min(DB_CAP, 10.0 * np.log10(1.0 / mse))


def _luma(img):
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 3 and img.shape[2] == 3:
        return img @ np.array([0.299, 0.587, 0.114])
    if img.ndim == 2:
        return img
    raise ContractViolation(f"expected (H, W) or (H, W, 3) image, got {img.shape}")


def _gaussian():
    half = (_WINDOW_SIZE - 1) / 2.0
    coords = np.arange(_WINDOW_SIZE) - half
    g = np.exp(-(coords ** 2) / (2.0 * _WINDOW_SIGMA ** 2))
    return g / g.sum()


# the 11x11 window is np.outer(_GAUSS, _GAUSS)
_GAUSS = _gaussian()


def _filtered(maps):
    """The valid part of each (H, W) map of ``maps`` filtered by the window:
    one pass of _GAUSS down the rows, one across the columns."""
    h, w = maps.shape[-2:]
    rows = sum(g * maps[..., k:h - _WINDOW_SIZE + 1 + k, :] for k, g in enumerate(_GAUSS))
    return sum(g * rows[..., k:w - _WINDOW_SIZE + 1 + k] for k, g in enumerate(_GAUSS))


def _ssim_pair(x, y):
    """Mean luminance and contrast-structure terms over valid windows."""
    c1 = _K1 ** 2
    c2 = _K2 ** 2
    mu_x, mu_y, sxx, syy, sxy = _filtered(np.stack((x, y, x * x, y * y, x * y)))
    xx = sxx - mu_x * mu_x
    yy = syy - mu_y * mu_y
    xy = sxy - mu_x * mu_y
    lum = (2 * mu_x * mu_y + c1) / (mu_x ** 2 + mu_y ** 2 + c1)
    cs = (2 * xy + c2) / (xx + yy + c2)
    return float(lum.mean()), float(cs.mean())


def _halve(img):
    h, w = (img.shape[0] // 2) * 2, (img.shape[1] // 2) * 2
    img = img[:h, :w]
    return (img[0::2, 0::2] + img[1::2, 0::2] + img[0::2, 1::2] + img[1::2, 1::2]) / 4.0


def ms_ssim(x, x_hat):
    """Multi-scale structural similarity in [0, 1] on Rec.601 luma.

    Uses 5 scales when the smaller side is at least 176 px; otherwise the
    scale count is reduced (with a warning) and the weights renormalized.
    A side shorter than the 11 px window is a ContractViolation.
    """
    a = _luma(x)
    b = _luma(x_hat)
    if a.shape != b.shape:
        raise ContractViolation(f"ms_ssim shape mismatch: {a.shape} vs {b.shape}")
    min_side = min(a.shape)
    if min_side < _WINDOW_SIZE:
        raise ContractViolation(
            f"ms_ssim needs both image sides of at least {_WINDOW_SIZE} px (the window), "
            f"got {a.shape[0]}x{a.shape[1]}")

    scales = len(MSSSIM_WEIGHTS)
    while scales > 1 and min_side // (2 ** (scales - 1)) < _WINDOW_SIZE:
        scales -= 1
    if scales < len(MSSSIM_WEIGHTS):
        warnings.warn(
            f"image side {min_side} is too small for 5 MS-SSIM scales; using {scales}",
            stacklevel=2,
        )
    weights = np.asarray(MSSSIM_WEIGHTS[:scales])
    weights = weights / weights.sum()

    score = 1.0
    for level in range(scales):
        lum, cs = _ssim_pair(a, b)
        if level == scales - 1:
            score *= max(lum * cs, 0.0) ** weights[level]
        else:
            score *= max(cs, 0.0) ** weights[level]
            a = _halve(a)
            b = _halve(b)
    return float(min(score, 1.0))


def ms_ssim_db(value):
    """-10*log10(1 - v), capped at 99 dB."""
    if value >= 1.0:
        return DB_CAP
    return min(DB_CAP, -10.0 * np.log10(1.0 - value))
