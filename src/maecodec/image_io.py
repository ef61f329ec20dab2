"""Image file I/O.

Binary PPM (P6, 8-bit) is the native, bit-exact reference path; grayscale
maps are written as binary PGM (P5).  PNG support is optional and comes
from Pillow when it is installed; it is imported only for such files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .exceptions import ContractViolation, MaecodecError


class ImageFormatError(MaecodecError, ValueError):
    pass


def _read_ppm_tokens(data, count):
    """First ``count`` whitespace-separated header tokens, skipping
    '#' comments; returns (tokens, offset_past_last_token)."""
    tokens = []
    pos = 0
    while len(tokens) < count:
        if pos >= len(data):
            raise ImageFormatError("truncated PPM header")
        ch = data[pos : pos + 1]
        if ch == b"#":
            pos = data.find(b"\n", pos)
            if pos < 0:
                raise ImageFormatError("unterminated PPM comment")
            pos += 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end : end + 1].isspace():
                end += 1
            tokens.append(data[pos:end])
            pos = end
    return tokens, pos + 1  # single whitespace after the last header token


def read_ppm(path):
    """8-bit binary PPM -> float32 (H, W, 3) in [0, 1]."""
    data = Path(path).read_bytes()
    tokens, offset = _read_ppm_tokens(data, 4)
    if tokens[0] != b"P6":
        raise ImageFormatError(f"{path}: expected P6, got {tokens[0]!r}")
    if not all(t.isdigit() for t in tokens[1:]):
        raise ImageFormatError(f"{path}: PPM header values must be decimal integers, "
                               f"got {b' '.join(tokens[1:])!r}")
    width, height, maxval = (int(t) for t in tokens[1:])
    if width == 0 or height == 0:
        raise ImageFormatError(f"{path}: PPM sides must be positive, got {width}x{height}")
    if maxval != 255:
        raise ImageFormatError(f"{path}: only 8-bit PPM supported, maxval={maxval}")
    expected = width * height * 3
    pixels = data[offset : offset + expected]
    if len(pixels) != expected:
        raise ImageFormatError(f"{path}: expected {expected} pixel bytes, found {len(pixels)}")
    arr = np.frombuffer(pixels, dtype=np.uint8).reshape(height, width, 3)
    return arr.astype(np.float32) / 255.0


def write_ppm(path, image):
    """Float (H, W, 3) in [0, 1] -> 8-bit binary PPM."""
    arr = _to_u8(image, channels=3)
    header = f"P6\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode()
    Path(path).write_bytes(header + arr.tobytes())


def write_pgm(path, image):
    """Float (H, W) in [0, 1] -> 8-bit binary PGM (grayscale)."""
    arr = _to_u8(image, channels=None)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode()
    Path(path).write_bytes(header + arr.tobytes())


def _to_u8(image, channels):
    arr = np.asarray(image)
    if channels is None and arr.ndim != 2:
        raise ContractViolation(f"grayscale output needs (H, W), got {arr.shape}")
    if channels is not None and (arr.ndim != 3 or arr.shape[2] != channels):
        raise ContractViolation(f"color output needs (H, W, {channels}), got {arr.shape}")
    return np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)


def _pillow(failure):
    """Pillow's Image module; ImageFormatError(failure) if not installed."""
    try:
        from PIL import Image
    except ImportError:
        raise ImageFormatError(f"{failure} and Pillow is not installed") from None
    return Image


def read_image(path):
    """Decode any supported image file to float32 (H, W, 3) in [0, 1]."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix in (".ppm", ".pnm"):
        return read_ppm(path)
    pil = _pillow(f"cannot decode {path}: only PPM is supported natively")
    with pil.open(path) as img:
        arr = np.asarray(img.convert("RGB"), dtype=np.uint8)
    return arr.astype(np.float32) / 255.0


def write_image(path, image):
    """Encode float (H, W, 3) in [0, 1] by file extension."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix in (".ppm", ".pnm"):
        write_ppm(path, image)
        return
    if suffix == ".pgm":
        write_pgm(path, image)
        return
    pil = _pillow(f"cannot encode {path}: only PPM/PGM are supported natively")
    pil.fromarray(_to_u8(image, channels=3)).save(path)
