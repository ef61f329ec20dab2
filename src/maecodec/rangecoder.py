"""Byte-wise renormalizing range coder and the .mae bitstream container.

The coder keeps a 32-bit range and a low accumulator with one carry bit,
emitting bytes through a carry-aware cache.  Overhead over the table
cross-entropy is one leading byte plus a five-byte flush, comfortably
inside the 64-bit bound the tests enforce.  Encoder and decoder consume
exactly the same number of bytes, so payloads are self-delimiting given
the symbol count.  A stream is one equal-length run of symbols per CDF
table, in order; a latent is coded as one run per channel.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .entropy import TOTAL_FREQ
from .exceptions import BitstreamError, CodingError, ContractViolation

_TOP = 1 << 24
_MASK32 = (1 << 32) - 1

MAGIC = b"MAE1"
VERSION = 1
HEADER_FMT = ">4sBBHHBHHHQI"
HEADER_SIZE = struct.calcsize(HEADER_FMT)  # 29 bytes


def _run_length(count, tables):
    """Symbols per table when ``count`` symbols split into one run per table."""
    if count == 0:
        return 0
    if tables and count > 0 and count % len(tables) == 0:
        return count // len(tables)
    raise ContractViolation(
        f"{count} symbols do not split into {len(tables)} equal table runs")


def _shift_low(low, cache, cache_size, out):
    """Emit the settled top byte of ``low``; a byte that may still take a
    carry waits in ``cache`` (followed by ``cache_size - 1`` 0xFF bytes)."""
    low32 = low & _MASK32
    carry = low >> 32
    if low32 < 0xFF000000 or carry:
        out.append((cache + carry) & 0xFF)
        out.extend(((0xFF + carry) & 0xFF,) * (cache_size - 1))
        cache_size = 0
        cache = low32 >> 24
    return (low32 & 0x00FFFFFF) << 8, cache, cache_size + 1


def rc_encode(symbols, tables):
    """Range-code ``symbols`` as ``len(tables)`` equal runs, in order, run c
    against ``tables[c]`` (the channel-major layout of a latent).

    Symbols are nonnegative table indices.
    """
    symbols = np.asarray(symbols, dtype=np.int64).ravel()
    run = _run_length(len(symbols), tables)
    low, rng, cache, cache_size = 0, _MASK32, 0, 1  # cache holds the leading byte
    out = bytearray()
    for c, table in enumerate(tables):
        chunk = symbols[c * run:(c + 1) * run]
        bad = np.flatnonzero((chunk < 0) | (chunk >= table.num_symbols))
        if bad.size:
            i = c * run + int(bad[0])
            raise CodingError(f"symbol {symbols[i]} at position {i} is outside "
                              f"table range [0, {table.num_symbols - 1}]")
        cum = table.cum.tolist()
        for s in chunk.tolist():
            r = rng // TOTAL_FREQ
            low += cum[s] * r
            rng = (cum[s + 1] - cum[s]) * r
            while rng < _TOP:
                low, cache, cache_size = _shift_low(low, cache, cache_size, out)
                rng = (rng << 8) & _MASK32
    for _ in range(5):
        low, cache, cache_size = _shift_low(low, cache, cache_size, out)
    return bytes(out)


def rc_decode(data, tables, count):
    """Recover exactly ``count`` symbols coded by ``rc_encode`` with the same
    tables; raises CodingError on truncation or when the payload does not
    end where the symbols do."""
    run = _run_length(count, tables)
    size = len(data)
    if size < 5:
        raise CodingError(f"truncated payload: needed byte {size}, have {size}")
    code = int.from_bytes(data[:5], "big") & _MASK32
    pos = 5
    rng = _MASK32
    out = np.empty((len(tables), run), dtype=np.int64)
    for c, table in enumerate(tables):
        cum = table.cum.tolist()
        decoded = []
        for _ in range(run):
            r = rng // TOTAL_FREQ
            val = code // r
            if val >= TOTAL_FREQ:
                val = TOTAL_FREQ - 1
            s = bisect_right(cum, val) - 1
            code -= cum[s] * r
            rng = (cum[s + 1] - cum[s]) * r
            while rng < _TOP:
                if pos >= size:
                    raise CodingError(f"truncated payload: needed byte {pos}, have {size}")
                code = ((code << 8) | data[pos]) & _MASK32
                pos += 1
                rng = (rng << 8) & _MASK32
            decoded.append(s)
        out[c] = decoded
    # encoder and decoder move the same number of bytes, so a clean payload
    # ends exactly where its last symbol does
    if pos != size:
        raise CodingError(f"decoding {count} symbols consumed {pos} of {size} payload bytes")
    return out.ravel()


# ---------------------------------------------------------------------------
# bitstream container


@dataclass
class Bitstream:
    """The .mae wire format: fixed 29-byte big-endian header plus the
    range-coded payload.  ``width``/``height`` are the original image
    dimensions before padding; ``lambda_index`` points into the model's
    tradeoff set; ``model_hash`` is the checkpoint digest.  The header
    also carries MAGIC, VERSION and a reserved flags byte, always 0."""

    width: int
    height: int
    lambda_index: int
    channels: int
    latent_height: int
    latent_width: int
    model_hash: int
    payload: bytes

    def to_bytes(self):
        header = struct.pack(
            HEADER_FMT, MAGIC, VERSION, 0,
            self.width, self.height, self.lambda_index, self.channels,
            self.latent_height, self.latent_width, self.model_hash,
            len(self.payload),
        )
        return header + self.payload

    @classmethod
    def from_bytes(cls, data):
        if len(data) < HEADER_SIZE:
            raise BitstreamError(f"bitstream shorter than the {HEADER_SIZE}-byte header")
        (magic, version, flags, width, height, lambda_index, channels,
         latent_h, latent_w, model_hash, payload_len) = struct.unpack(
            HEADER_FMT, data[:HEADER_SIZE])
        if magic != MAGIC:
            raise BitstreamError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise BitstreamError(f"unsupported bitstream version {version}")
        if flags != 0:
            raise BitstreamError(f"reserved flags byte is {flags:#04x}, must be 0")
        payload = data[HEADER_SIZE:]
        if len(payload) != payload_len:
            raise BitstreamError(
                f"payload length field says {payload_len} bytes, found {len(payload)}"
            )
        return cls(width=width, height=height, lambda_index=lambda_index,
                   channels=channels, latent_height=latent_h, latent_width=latent_w,
                   model_hash=model_hash, payload=bytes(payload))


def pack(q, meta, tables):
    """Serialize a quantized latent (C, h, w) into a Bitstream.

    ``meta`` must carry width, height, lambda_index and model_hash.
    Symbols are coded channel-major using each channel's table, offset
    into nonnegative indices by the table's support.
    """
    q = np.asarray(q)
    if q.ndim != 3:
        raise ContractViolation(f"pack expects a (C, h, w) latent, got shape {q.shape}")
    c, lh, lw = q.shape
    if len(tables) != c:
        raise ContractViolation(f"latent has {c} channels but {len(tables)} tables given")
    offsets = np.array([t.offset for t in tables], dtype=np.int64).reshape(c, 1, 1)
    symbols = (q.astype(np.int64) + offsets).ravel()
    payload = rc_encode(symbols, tables)
    return Bitstream(
        width=int(meta["width"]), height=int(meta["height"]),
        lambda_index=int(meta["lambda_index"]), channels=c,
        latent_height=lh, latent_width=lw,
        model_hash=int(meta["model_hash"]), payload=payload,
    )


def unpack(bits, tables):
    """Inverse of pack: recover (q, meta) from a Bitstream.

    The caller is responsible for checking model_hash against the
    checkpoint before trusting the tables.
    """
    if isinstance(bits, (bytes, bytearray)):
        bits = Bitstream.from_bytes(bits)
    c, lh, lw = bits.channels, bits.latent_height, bits.latent_width
    if len(tables) != c:
        raise ContractViolation(f"bitstream has {c} channels but {len(tables)} tables given")
    symbols = rc_decode(bits.payload, tables, c * lh * lw)
    offsets = np.array([t.offset for t in tables], dtype=np.int64).reshape(c, 1, 1)
    q = symbols.reshape(c, lh, lw) - offsets
    meta = {
        "width": bits.width, "height": bits.height,
        "lambda_index": bits.lambda_index, "model_hash": bits.model_hash,
    }
    return q.astype(np.int32), meta
