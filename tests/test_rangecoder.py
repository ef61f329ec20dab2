"""Range coder: lossless round trips, length bounds, cross-check against an
exact big-integer arithmetic coder, and the bitstream container layout."""

import hashlib
import sys
import tracemalloc

import numpy as np
import pytest

from maecodec.entropy import TOTAL_FREQ, CdfTable
from maecodec.exceptions import BitstreamError, CodingError, ContractViolation
from maecodec.rangecoder import (HEADER_SIZE, Bitstream, pack, rc_decode,
                                 rc_encode, unpack)

import reference_coder


def random_table(rng, num_symbols):
    """A valid random table: positive frequencies summing to 65536."""
    f = rng.integers(1, 2000, size=num_symbols).astype(np.float64)
    f = np.maximum((f * (TOTAL_FREQ - num_symbols) / f.sum()).astype(np.int64), 1)
    f[int(rng.integers(num_symbols))] += TOTAL_FREQ - f.sum()
    cum = np.zeros(num_symbols + 1, dtype=np.int64)
    np.cumsum(f, out=cum[1:])
    return CdfTable(cum, offset=0)


class TestRoundTrip:
    def test_empty_sequence(self):
        payload = rc_encode([], [])
        assert len(payload) <= 8
        assert list(rc_decode(payload, [], 0)) == []

    def test_uniform_256_length(self, rng):
        cum = np.arange(257, dtype=np.int64) * 256
        table = CdfTable(cum, offset=128)
        syms = rng.integers(0, 256, size=4096)
        payload = rc_encode(syms, [table])
        assert 4096 <= len(payload) <= 4104
        np.testing.assert_array_equal(rc_decode(payload, [table], 4096), syms)

    def test_near_deterministic_stream(self):
        freqs = np.ones(256, dtype=np.int64)
        freqs[0] = TOTAL_FREQ - 255
        cum = np.zeros(257, dtype=np.int64)
        np.cumsum(freqs, out=cum[1:])
        table = CdfTable(cum, offset=0)
        syms = np.zeros(10000, dtype=np.int64)
        payload = rc_encode(syms, [table])
        # < 0.01 bits/symbol plus flush overhead
        assert len(payload) * 8 <= 0.01 * 10000 + 64
        np.testing.assert_array_equal(rc_decode(payload, [table], 10000), syms)

    @pytest.mark.parametrize("block", range(10))
    def test_many_random_round_trips(self, block):
        # 10 blocks x 100 seeds = 1000 independent cases, lengths 0..10^4
        for seed in range(block * 100, (block + 1) * 100):
            r = np.random.default_rng(seed)
            table = random_table(r, int(r.integers(2, 80)))
            n = int(r.integers(0, 300)) if seed % 10 else int(r.integers(0, 10000))
            syms = r.integers(0, table.num_symbols, size=n)
            payload = rc_encode(syms, [table])
            np.testing.assert_array_equal(rc_decode(payload, [table], n), syms)
            ce = table.bits_for(syms)
            assert ce <= len(payload) * 8 <= ce + 64

    def test_production_shape_and_traced_peak_memory(self):
        # the desk latent's shape: 32 channel tables of 511 symbols, one run
        # of 16,384 symbols (a 128 x 128 latent) per table; each channel's
        # symbols are drawn from its own Laplace table
        r = np.random.default_rng(11)
        support = np.arange(511) - 255
        tables, runs = [], []
        for scale in r.uniform(0.3, 3.0, size=32):
            pmf = np.exp(-np.abs(support) / scale)
            f = np.maximum((pmf / pmf.sum() * (TOTAL_FREQ - 511)).astype(np.int64), 1)
            f[255] += TOTAL_FREQ - f.sum()
            tables.append(CdfTable(np.concatenate([[0], np.cumsum(f)]), offset=255))
            runs.append(np.clip(np.rint(r.laplace(0, scale, size=16384)), -255, 255) + 255)
        syms = np.concatenate(runs).astype(np.int64)

        # tracemalloc looks up the source line of every allocation; CPython
        # 3.11 scans a function's whole line table for it unless a call of
        # that function ran under a trace function, which leaves a line
        # array behind.  One such call on a 32-symbol stream makes the two
        # traced runs about five times faster, at equal peaks.
        short = syms[::16384]
        previous = sys.gettrace()
        sys.settrace(lambda *event: None)
        try:
            rc_decode(rc_encode(short, tables), tables, len(short))
        finally:
            sys.settrace(previous)

        def traced(call, *args):
            tracemalloc.start()
            try:
                return call(*args), tracemalloc.get_traced_memory()[1] / 2 ** 20
            finally:
                tracemalloc.stop()

        payload, encode_mb = traced(rc_encode, syms, tables)
        decoded, decode_mb = traced(rc_decode, payload, tables, len(syms))
        np.testing.assert_array_equal(decoded, syms)
        # working lists live per run, and one table's symbol lookup at a
        # time; whole-stream lists peak at about 54 MB and 14.5 MB
        print(f"traced peak MB: rc_encode {encode_mb:.2f}, rc_decode {decode_mb:.2f}")
        assert encode_mb < 2 and decode_mb < 6

    def test_mixed_tables_per_position(self, rng):
        # 8 tables, one 250-symbol run each
        tables = [random_table(rng, int(rng.integers(2, 50))) for _ in range(8)]
        syms = np.concatenate([rng.integers(0, t.num_symbols, size=250) for t in tables])
        payload = rc_encode(syms, tables)
        np.testing.assert_array_equal(rc_decode(payload, tables, len(syms)), syms)


class TestErrors:
    def test_out_of_range_symbol(self, rng):
        table = random_table(rng, 10)
        with pytest.raises(CodingError, match="position 1"):
            rc_encode([3, 10], [table, table])

    def test_truncated_payload(self, rng):
        table = random_table(rng, 16)
        syms = rng.integers(0, 16, size=500)
        payload = rc_encode(syms, [table])
        with pytest.raises(CodingError, match="truncated"):
            rc_decode(payload[: len(payload) // 2], [table], 500)

    def test_unconsumed_payload_bytes_rejected(self, rng):
        table = random_table(rng, 16)
        syms = rng.integers(0, 16, size=500)
        payload = rc_encode(syms, [table])
        with pytest.raises(CodingError, match=f"consumed {len(payload)} of {len(payload) + 1}"):
            rc_decode(payload + b"\x00", [table], 500)

    def test_wrong_count_is_rejected(self, rng):
        # one table takes any count, so a wrong one shows in the payload
        table = random_table(rng, 16)
        syms = rng.integers(0, 16, size=500)
        payload = rc_encode(syms, [table])
        with pytest.raises(CodingError, match="consumed"):
            rc_decode(payload, [table], 400)
        with pytest.raises(CodingError, match="truncated"):
            rc_decode(payload, [table], 600)

    def test_uneven_runs_are_rejected(self, rng):
        tables = [random_table(rng, 16) for _ in range(3)]
        with pytest.raises(ContractViolation, match="equal table runs"):
            rc_encode(np.zeros(10, dtype=np.int64), tables)
        payload = rc_encode(np.zeros(9, dtype=np.int64), tables)
        with pytest.raises(ContractViolation, match="equal table runs"):
            rc_decode(payload, tables, 10)
        with pytest.raises(ContractViolation, match="equal table runs"):
            rc_decode(payload, [], 9)


class TestHostileDecode:
    """What the decoder makes of garbage, pinned, so a decoder rewrite
    cannot silently change which payloads decode or how the rest fail."""

    def test_garbage_payload_digest(self):
        digest = hashlib.sha256()
        decoded = clamped = 0
        for seed in range(300):
            r = np.random.default_rng(9000 + seed)
            sizes = [int(k) for k in r.integers(2, 40, size=int(r.integers(1, 5)))]
            if seed % 3 == 0:
                sizes[int(r.integers(len(sizes)))] = 511
            tables = [random_table(r, k) for k in sizes]
            count = len(tables) * int(r.integers(0, 24))
            payload = bytearray(r.integers(0, 256, size=int(r.integers(0, 65)), dtype=np.uint8))
            if seed % 4 == 1:
                # a clean payload of at most 64 bytes with one byte changed
                syms = np.concatenate([r.integers(0, t.num_symbols, size=count // len(tables))
                                       for t in tables])
                payload = bytearray(rc_encode(syms, tables))[:64]
                payload[int(r.integers(len(payload)))] ^= int(r.integers(1, 256))
            if seed % 4 == 0:
                # code // r exceeds TOTAL_FREQ - 1 on the first symbol
                payload[:5] = b"\xff" * min(5, len(payload))
            code = int.from_bytes(payload[:5], "big") & 0xFFFFFFFF
            clamped += len(payload) >= 5 and code // (0xFFFFFFFF // TOTAL_FREQ) >= TOTAL_FREQ
            try:
                out = rc_decode(bytes(payload), tables, count)
            except CodingError as exc:
                digest.update(b"error " + str(exc).encode() + b"\n")
            else:
                decoded += 1
                digest.update(b"symbols " + np.asarray(out, dtype="<i8").tobytes() + b"\n")
        # 36 decode silently (a payload has no checksum); 66 open with a
        # code // r above TOTAL_FREQ - 1
        assert (decoded, clamped) == (36, 66)
        assert digest.hexdigest() == \
            "f786f30f8333e13aef327aa8b4a67ef286ba34b6f30a7ebf5d07fd3b2eb1ffcf"


class TestAgainstExactCoder:
    def test_cross_check_100_streams(self):
        for seed in range(100):
            r = np.random.default_rng(1000 + seed)
            table = random_table(r, int(r.integers(2, 30)))
            n = int(r.integers(1, 120))
            syms = [int(v) for v in r.integers(0, table.num_symbols, size=n)]
            cum = table.cum.tolist()

            code, k = reference_coder.encode(syms, cum, TOTAL_FREQ)
            ref_decoded = reference_coder.decode(code, k, n, cum, TOTAL_FREQ)
            assert ref_decoded == syms

            payload = rc_encode(syms, [table])
            mine = list(rc_decode(payload, [table], n))
            assert mine == ref_decoded
            # both coders sit within a few bytes of the exact cross-entropy
            ce = table.bits_for(np.array(syms))
            assert abs(k - ce) <= 16
            assert abs(len(payload) * 8 - ce) <= 64


class TestGoldenBytes:
    """Exact output bytes, so a coder rewrite cannot silently change the format."""

    def test_multi_table_stream_bytes(self):
        # 5 channel runs of 400 symbols; the stream propagates 191 carries
        # and holds back a pending 0xFF byte 3 times
        r = np.random.default_rng(7)
        tables = [random_table(r, k) for k in (2, 5, 17, 64, 300)]
        syms = np.concatenate([r.integers(0, t.num_symbols, size=400) for t in tables])
        payload = rc_encode(syms, tables)
        assert len(payload) == 1169
        assert hashlib.sha256(payload).hexdigest() == \
            "ce7479e6463fc71e9384dfda7fcf93037c6642c44774d2536c02ff5afaf41335"

    def test_pack_bytes(self):
        r = np.random.default_rng(8)
        tables = [CdfTable(random_table(r, 2 * l + 1).cum, offset=l) for l in (1, 4, 9, 30)]
        q = np.stack([r.integers(-t.offset, t.offset + 1, size=(6, 7))
                      for t in tables]).astype(np.int32)
        meta = {"width": 100, "height": 90, "lambda_index": 2,
                "model_hash": 0x0F1E2D3C4B5A6978}
        data = pack(q, meta, tables).to_bytes()
        assert len(data) == 118
        assert hashlib.sha256(data).hexdigest() == \
            "3ee1ddb0725744006254da69a2a79c7dd4d5584497840ae09b11a6db5d1303e4"


class TestBitstream:
    def test_header_is_29_bytes(self):
        assert HEADER_SIZE == 4 + 1 + 1 + 2 + 2 + 1 + 2 + 2 + 2 + 8 + 4 == 29

    def test_golden_header_bytes(self):
        bits = Bitstream(width=0x0102, height=0x0304, lambda_index=5,
                         channels=0x0607, latent_height=0x0809, latent_width=0x0A0B,
                         model_hash=0x1122334455667788, payload=b"\xAA\xBB")
        expected = (b"MAE1" + b"\x01" + b"\x00"
                    + b"\x01\x02" + b"\x03\x04" + b"\x05"
                    + b"\x06\x07" + b"\x08\x09" + b"\x0a\x0b"
                    + b"\x11\x22\x33\x44\x55\x66\x77\x88"
                    + b"\x00\x00\x00\x02" + b"\xAA\xBB")
        assert bits.to_bytes() == expected
        back = Bitstream.from_bytes(expected)
        assert back == bits

    def test_pack_unpack_identity(self, rng):
        cum = np.arange(257, dtype=np.int64) * 256
        table = CdfTable(cum, offset=128)
        q = rng.integers(-128, 128, size=(4, 6, 5)).astype(np.int32)
        meta = {"width": 80, "height": 77, "lambda_index": 3,
                "model_hash": 0xDEADBEEF12345678}
        bits = pack(q, meta, [table] * 4)
        q2, meta2 = unpack(Bitstream.from_bytes(bits.to_bytes()), [table] * 4)
        np.testing.assert_array_equal(q, q2)
        assert meta2["width"] == 80 and meta2["height"] == 77
        assert meta2["lambda_index"] == 3
        assert meta2["model_hash"] == 0xDEADBEEF12345678

    def test_bpp_accounting_definition(self):
        # 1000 total bytes on a 512x512 image
        assert 1000 * 8 / (512 * 512) == pytest.approx(0.030517578125)

    def test_bad_magic_version_length(self):
        bits = Bitstream(width=1, height=1, lambda_index=0, channels=1,
                         latent_height=1, latent_width=1, model_hash=0, payload=b"xy")
        raw = bytearray(bits.to_bytes())
        with pytest.raises(BitstreamError, match="magic"):
            Bitstream.from_bytes(b"XXXX" + bytes(raw[4:]))
        bad_version = bytes(raw[:4]) + b"\x09" + bytes(raw[5:])
        with pytest.raises(BitstreamError, match="version"):
            Bitstream.from_bytes(bad_version)
        with pytest.raises(BitstreamError, match="length"):
            Bitstream.from_bytes(bytes(raw[:-1]))
        with pytest.raises(BitstreamError, match="header"):
            Bitstream.from_bytes(b"MAE1")

    def test_reserved_flags_byte_must_be_zero(self):
        # a nonzero byte used to be ignored: the stream still decoded
        bits = Bitstream(width=1, height=1, lambda_index=0, channels=1,
                         latent_height=1, latent_width=1, model_hash=0, payload=b"xy")
        raw = bytearray(bits.to_bytes())
        assert raw[5] == 0
        raw[5] = 0xA5
        with pytest.raises(BitstreamError, match="flags"):
            Bitstream.from_bytes(bytes(raw))
