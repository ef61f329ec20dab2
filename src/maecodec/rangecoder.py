"""Byte-wise renormalizing range coder and the .mae bitstream container.

The coder keeps a 32-bit range and a low accumulator with one carry bit.
A settled byte goes out at once; a byte that may still take a carry
waits as ``cache``, followed by a count of pending 0xFF bytes, and both
go out when the next byte settles.  Overhead over the table
cross-entropy is one leading byte and a five-byte flush, plus up to
-log2(1 - 2^-8), about 0.0056 bits, per symbol for truncating the range
to a multiple of TOTAL_FREQ: the streams of desk latents stay inside
OVERHEAD_BOUND_BITS, long streams at several bits per symbol need not.
Encoder and decoder consume exactly the same number of bytes, so
payloads are self-delimiting given the symbol count.  A stream is one
equal-length run of symbols per CDF table, in order; a latent is coded
as one run per channel.

Both loops run over plain Python ints, built per run: the encoder
gathers each symbol's cumulative start and frequency with numpy first,
and the decoder finds a symbol with one index into a 2^16-entry table
that maps every cumulative value to its symbol (the table-driven decode
of J. Duda, "Asymmetric numeral systems", arXiv:1311.2540), built for
one CDF table at a time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .entropy import TOTAL_FREQ
from .exceptions import BitstreamError, CodingError, ContractViolation

_FREQ_BITS = TOTAL_FREQ.bit_length() - 1
_TOP = 1 << 24
_MASK32 = (1 << 32) - 1
OVERHEAD_BOUND_BITS = 64  # acceptance criterion 3b

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


def rc_encode(symbols, tables):
    """Range-code ``symbols`` as ``len(tables)`` equal runs, in order, run c
    against ``tables[c]`` (the channel-major layout of a latent).

    Symbols are nonnegative table indices.
    """
    symbols = np.asarray(symbols, dtype=np.int64).ravel()
    run = _run_length(len(symbols), tables)
    low, rng = 0, _MASK32
    cache, pending = 0, 0  # cache holds the leading byte
    out = bytearray()
    emit = out.append
    for c, table in enumerate(tables):
        chunk = symbols[c * run:(c + 1) * run]
        bad = np.flatnonzero((chunk < 0) | (chunk >= table.num_symbols))
        if bad.size:
            i = c * run + int(bad[0])
            raise CodingError(f"symbol {symbols[i]} at position {i} is outside "
                              f"table range [0, {table.num_symbols - 1}]")
        starts = table.cum[chunk]
        freqs = (table.cum[chunk + 1] - starts).tolist()
        for start, freq in zip(starts.tolist(), freqs):
            r = rng >> _FREQ_BITS
            low += start * r
            rng = freq * r
            while rng < _TOP:
                if low < 0xFF000000:  # the top byte is settled, no carry
                    emit(cache)
                    if pending:
                        out += b"\xff" * pending
                        pending = 0
                    cache = low >> 24
                elif low > _MASK32:  # the carry settles the cache and the 0xFFs
                    emit((cache + 1) & 0xFF)
                    out += bytes(pending)
                    pending = 0
                    cache = (low >> 24) & 0xFF
                else:  # a 0xFF that a later carry may still turn into 0x00
                    pending += 1
                low = (low & 0x00FFFFFF) << 8
                rng <<= 8
    # flush: the cache, the pending bytes and all four bytes of low
    carry = low >> 32
    emit((cache + carry) & 0xFF)
    out += (b"\x00" if carry else b"\xff") * pending
    out += (low & _MASK32).to_bytes(4, "big")
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
    last = TOTAL_FREQ - 1
    out = np.empty((len(tables), run), dtype=np.int64)
    for c, table in enumerate(tables):
        freqs = table.frequencies()
        # symbol_at[v] is the symbol s with cum[s] <= v < cum[s + 1]
        symbol_at = memoryview(np.repeat(np.arange(table.num_symbols, dtype=np.uint16), freqs))
        cum = table.cum.tolist()
        freq = freqs.tolist()
        decoded = []
        push = decoded.append
        for _ in range(run):
            r = rng >> _FREQ_BITS
            val = code // r
            s = symbol_at[val if val < last else last]
            code -= cum[s] * r
            rng = freq[s] * r
            while rng < _TOP:
                if pos >= size:
                    raise CodingError(f"truncated payload: needed byte {pos}, have {size}")
                code = ((code << 8) | data[pos]) & _MASK32
                pos += 1
                rng <<= 8
            push(s)
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
