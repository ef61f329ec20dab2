"""Byte-wise renormalizing range coder and the .mae bitstream container.

The coder keeps a 32-bit range and a low accumulator with one carry bit,
emitting bytes through a carry-aware cache.  Overhead over the table
cross-entropy is one leading byte plus a five-byte flush, comfortably
inside the 64-bit bound the tests enforce.  Encoder and decoder consume
exactly the same number of bytes, so payloads are self-delimiting given
the symbol count.
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


class RangeEncoder:
    """Single-use streaming encoder over [cum_lo, cum_hi) / total slices."""

    def __init__(self):
        self.low = 0
        self.range = _MASK32
        self.cache = 0
        self.cache_size = 1  # accounts for the leading byte
        self.out = bytearray()
        self._done = False

    def encode(self, cum_lo, cum_hi, total):
        if self._done:
            raise CodingError("encoder already flushed")
        r = self.range // total
        self.low += cum_lo * r
        self.range = (cum_hi - cum_lo) * r
        while self.range < _TOP:
            self._shift_low()
            self.range = (self.range << 8) & _MASK32

    def _shift_low(self):
        low32 = self.low & _MASK32
        carry = self.low >> 32
        if low32 < 0xFF000000 or carry:
            self.out.append((self.cache + carry) & 0xFF)
            self.out.extend(((0xFF + carry) & 0xFF,) * (self.cache_size - 1))
            self.cache_size = 0
            self.cache = (low32 >> 24) & 0xFF
        self.cache_size += 1
        self.low = (low32 & 0x00FFFFFF) << 8

    def finish(self):
        if not self._done:
            for _ in range(5):
                self._shift_low()
            self._done = True
        return bytes(self.out)


class RangeDecoder:
    """Single-use streaming decoder; mirrors RangeEncoder byte for byte."""

    def __init__(self, data):
        self.data = data
        self.pos = 0
        self.range = _MASK32
        self.code = 0
        for _ in range(5):
            self.code = ((self.code << 8) | self._next_byte()) & _MASK32

    def _next_byte(self):
        if self.pos >= len(self.data):
            raise CodingError(
                f"truncated payload: needed byte {self.pos}, have {len(self.data)}"
            )
        b = self.data[self.pos]
        self.pos += 1
        return b

    def decode(self, cum, total):
        """Return the index s with cum[s] <= scaled code < cum[s+1]."""
        r = self.range // total
        val = self.code // r
        if val >= total:
            val = total - 1
        s = bisect_right(cum, val) - 1
        self.code -= cum[s] * r
        self.range = (cum[s + 1] - cum[s]) * r
        while self.range < _TOP:
            self.code = ((self.code << 8) | self._next_byte()) & _MASK32
            self.range = (self.range << 8) & _MASK32
        return s


def rc_encode(symbols, tables):
    """Range-code a symbol sequence against per-symbol CdfTables.

    ``tables`` gives the table for each position (one table may be reused
    for a run of symbols).  Symbols are nonnegative table indices.
    """
    symbols = np.asarray(symbols, dtype=np.int64).ravel()
    if len(tables) != len(symbols):
        raise ContractViolation(
            f"need one table per symbol: {len(symbols)} symbols, {len(tables)} tables"
        )
    enc = RangeEncoder()
    last_table = None
    cum = None
    for i, (s, table) in enumerate(zip(symbols.tolist(), tables)):
        if table is not last_table:
            cum = table.cum.tolist()
            last_table = table
        if not 0 <= s < len(cum) - 1:
            raise CodingError(
                f"symbol {s} at position {i} is outside table range [0, {len(cum) - 2}]"
            )
        enc.encode(cum[s], cum[s + 1], TOTAL_FREQ)
    return enc.finish()


def rc_decode(data, tables, count):
    """Recover exactly ``count`` symbols; raises CodingError on truncation
    or when the payload does not end where the symbols do."""
    if count != len(tables):
        raise ContractViolation(
            f"need one table per symbol: count {count}, {len(tables)} tables"
        )
    dec = RangeDecoder(data)
    out = np.empty(count, dtype=np.int64)
    last_table = None
    cum = None
    for i in range(count):
        table = tables[i]
        if table is not last_table:
            cum = table.cum.tolist()
            last_table = table
        out[i] = dec.decode(cum, TOTAL_FREQ)
    # encoder and decoder move the same number of bytes, so a clean payload
    # ends exactly where its last symbol does
    if dec.pos != len(data):
        raise CodingError(
            f"decoding {count} symbols consumed {dec.pos} of {len(data)} payload bytes")
    return out


# ---------------------------------------------------------------------------
# bitstream container


@dataclass
class Bitstream:
    """The .mae wire format: fixed 29-byte big-endian header plus the
    range-coded payload.  ``width``/``height`` are the original image
    dimensions before padding; ``lambda_index`` points into the model's
    tradeoff set; ``model_hash`` is the checkpoint digest."""

    width: int
    height: int
    lambda_index: int
    channels: int
    latent_height: int
    latent_width: int
    model_hash: int
    payload: bytes
    version: int = VERSION
    flags: int = 0

    def to_bytes(self):
        header = struct.pack(
            HEADER_FMT, MAGIC, self.version, self.flags,
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
        payload = data[HEADER_SIZE:]
        if len(payload) != payload_len:
            raise BitstreamError(
                f"payload length field says {payload_len} bytes, found {len(payload)}"
            )
        return cls(width=width, height=height, lambda_index=lambda_index,
                   channels=channels, latent_height=latent_h, latent_width=latent_w,
                   model_hash=model_hash, payload=bytes(payload),
                   version=version, flags=flags)


def _per_symbol_tables(tables, latent_h, latent_w):
    per_channel = latent_h * latent_w
    refs = []
    for table in tables:
        refs.extend((table,) * per_channel)
    return refs


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
    payload = rc_encode(symbols, _per_symbol_tables(tables, lh, lw))
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
    symbols = rc_decode(bits.payload, _per_symbol_tables(tables, lh, lw), c * lh * lw)
    offsets = np.array([t.offset for t in tables], dtype=np.int64).reshape(c, 1, 1)
    q = symbols.reshape(c, lh, lw) - offsets
    meta = {
        "width": bits.width, "height": bits.height,
        "lambda_index": bits.lambda_index, "model_hash": bits.model_hash,
        "version": bits.version, "flags": bits.flags,
    }
    return q.astype(np.int32), meta
