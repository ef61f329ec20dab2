"""Checkpoint files: the self-describing model snapshot and its loader.

A checkpoint is a 9-byte preamble (magic, format version, header length),
a JSON header (architecture, mode, tradeoffs, iteration, block shapes) and
the parameter blocks as little-endian float32 in sorted name order.
``Checkpoint._layout`` is that layout: the file is its parts joined, the
model hash is their digest, and a file loads only if it is what the
layout writes back for the values it holds.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import CheckpointError, ContractViolation
from .network import CodecConfig, CodecModel, TradeoffSet

_MAGIC = b"MAEC"
FORMAT_VERSION = 1
# the keys _layout writes
_KEYS = ("version", "channels", "mod_hidden", "mode", "lambdas", "lambda_index", "iteration",
         "params")


@dataclass
class Checkpoint:
    """Self-describing snapshot: architecture, mode, tradeoffs, parameters.

    ``lambda_index`` records which tradeoff an independently trained
    ("plain") model was optimized for; None otherwise.
    """

    config: CodecConfig
    mode: str
    lambdas: tuple
    iteration: int
    params: dict
    lambda_index: int | None = None

    def _layout(self):
        """Yield the file as its parts, in order: the preamble and header,
        then each block as a C-contiguous ``<f4`` array, in sorted name
        order."""
        names = sorted(self.params)
        head = _canonical({
            "version": FORMAT_VERSION,
            "channels": self.config.channels,
            "mod_hidden": self.config.mod_hidden,
            "mode": self.mode,
            "lambdas": list(self.lambdas),
            "lambda_index": self.lambda_index,
            "iteration": self.iteration,
            "params": [[n, list(self.params[n].shape)] for n in names],
        })
        yield _MAGIC + struct.pack(">BI", FORMAT_VERSION, len(head)) + head
        for name in names:
            yield np.ascontiguousarray(self.params[name], dtype="<f4")

    def to_bytes(self):
        return b"".join(self._layout())

    @classmethod
    def from_bytes(cls, data):
        if data[:4] != _MAGIC:
            raise CheckpointError("not a checkpoint file (bad magic)")
        if len(data) < 9:
            raise CheckpointError("checkpoint shorter than its 9-byte preamble")
        version, head_len = struct.unpack(">BI", data[4:9])
        if version != FORMAT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        try:
            header = json.loads(data[9 : 9 + head_len].decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
        if not isinstance(header, dict) or not all(key in header for key in _KEYS):
            raise CheckpointError(
                f"checkpoint header must be an object with keys {', '.join(_KEYS)}")
        offset = 9 + head_len
        params = {}
        try:
            for name, shape in header["params"]:
                # frombuffer reads the rest of the file for count=-1
                if not all(type(d) is int and d >= 0 for d in shape):
                    raise CheckpointError(
                        f"malformed checkpoint header: block {name!r} has shape {shape!r}, "
                        f"not a list of integers >= 0")
                count = math.prod(shape)
                end = offset + 4 * count
                if end > len(data):
                    raise CheckpointError(f"checkpoint truncated inside block {name!r}")
                params[name] = np.frombuffer(data, "<f4", count, offset).reshape(shape).copy()
                offset = end
            lambda_index, iteration = header["lambda_index"], header["iteration"]
            # checked, not converted: _layout writes the values back as read
            lambdas = tuple(header["lambdas"])
            if not all(type(v) in (int, float) and math.isfinite(v) for v in lambdas):
                raise CheckpointError(
                    f"malformed checkpoint header: lambdas must be finite numbers, "
                    f"got {header['lambdas']!r}")
            if type(iteration) is not int or iteration < 0:
                raise CheckpointError(
                    f"malformed checkpoint header: iteration must be an integer >= 0, "
                    f"got {iteration!r}")
            if lambda_index is not None and (
                    type(lambda_index) is not int or not 0 <= lambda_index < len(lambdas)):
                raise CheckpointError(
                    f"malformed checkpoint header: lambda_index {lambda_index!r} is not an "
                    f"index of the {len(lambdas)} tradeoffs")
            if lambda_index is not None and header["mode"] != "plain":
                raise CheckpointError(
                    f"malformed checkpoint header: lambda_index set in mode "
                    f"{header['mode']!r}; only an independent (plain) model records one")
            ckpt = cls(
                config=CodecConfig(channels=header["channels"], mod_hidden=header["mod_hidden"]),
                mode=header["mode"],
                lambdas=lambdas,
                iteration=iteration,
                params=params,
                lambda_index=lambda_index,
            )
            written = next(ckpt._layout())
        except CheckpointError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            # fields of the wrong type, shape or range (ContractViolation included)
            raise CheckpointError(f"malformed checkpoint header: {exc}") from exc
        # a file that _layout does not write back would load with the model_hash
        # of another file
        if data[:9 + head_len] != written or offset != len(data):
            raise CheckpointError(
                "malformed checkpoint: not written as a checkpoint is (every header key once, "
                "the preamble's version, blocks once each in sorted name order, sorted "
                "space-free JSON, nothing after the last block)")
        return ckpt

    def save(self, path):
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path):
        return cls.from_bytes(Path(path).read_bytes())

    @property
    def model_hash(self):
        """64-bit digest of the file's bytes; guards bitstream decode."""
        digest = hashlib.sha256()
        for part in self._layout():
            digest.update(part)
        return int.from_bytes(digest.digest()[:8], "big")


def _canonical(header):
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode()


def model_from_checkpoint(ckpt, dtype=np.float32):
    """The model ``ckpt`` holds: its blocks are checked against the
    architecture's parameter table before anything is allocated."""
    try:
        return CodecModel.from_arrays(ckpt.config, TradeoffSet(ckpt.lambdas), ckpt.mode,
                                      ckpt.params, dtype)
    except ContractViolation as exc:
        raise CheckpointError(f"unusable checkpoint: {exc}") from exc
