"""Span tracing for the benchmark's traced run.

Spans are recorded by wrappers that the benchmark installs around the
public functions of each maecodec module for the duration of the traced
run and removes afterwards; no maecodec source is changed.  A wrapper is
installed on every name a caller can look the function up by (a module
that did ``from .entropy import build_cdf_tables`` holds its own
binding), so no call escapes the trace.

Spans live in flat in-memory arrays, one op id per benchmark op, and are
written out once at the end.  A span's self time is its duration minus
the durations of its direct children; since spans nest strictly in this
single-threaded program, the self times of all spans in an op plus the
op's untraced remainder add up to the op's duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

TABLE_BUILD_SPANS = ("entropy.tables", "entropy.choose_support")


def _arg(args, kwargs, index, name, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def conv2d_flops(args, kwargs):
    """Multiply-adds x 2 of one conv2d forward call, from tensor shapes."""
    x, kernel = _arg(args, kwargs, 0, "x", None), _arg(args, kwargs, 1, "kernel", None)
    stride = _arg(args, kwargs, 2, "stride", 1)
    padding = _arg(args, kwargs, 3, "padding", 0)
    n, ci, h, w = x.shape
    co, _, kh, kw = kernel.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    return 2.0 * n * co * ho * wo * ci * kh * kw


def conv2d_transpose_flops(args, kwargs):
    """Multiply-adds x 2 of one conv2d_transpose forward call: every input
    site scatters a (C_out, K, K) block."""
    x, kernel = _arg(args, kwargs, 0, "x", None), _arg(args, kwargs, 1, "kernel", None)
    n, ci, h, w = x.shape
    _, co, kh, kw = kernel.shape
    return 2.0 * n * ci * h * w * co * kh * kw


def encoded_symbols(args, kwargs):
    return float(np.size(_arg(args, kwargs, 0, "symbols", ())))


def decoded_symbols(args, kwargs):
    return float(_arg(args, kwargs, 2, "count", 0))


def _tensor_other():
    """Every public tensor primitive except the two convolutions and the
    gradient checker (which is an op of its own, not a primitive)."""
    from maecodec import tensor

    skip = {"conv2d", "conv2d_transpose", "grad_check"}
    return tuple(sorted(
        name for name, fn in vars(tensor).items()
        if inspect.isfunction(fn) and fn.__module__ == tensor.__name__
        and not name.startswith("_") and name not in skip))


def span_targets():
    """(owner, attribute, span name, work function) for every traced call.

    The owner is a dotted module path or a dotted class path.
    """
    targets = [
        ("maecodec.tensor", "conv2d", "tensor.conv2d", conv2d_flops),
        ("maecodec.tensor", "conv2d_transpose", "tensor.conv2d_transpose",
         conv2d_transpose_flops),
        ("maecodec.tensor.GradientTape", "backward", "tensor.backward", None),
    ]
    targets += [("maecodec.tensor", name, "tensor.other", None) for name in _tensor_other()]
    targets += [
        ("maecodec.gdn", "gdn_forward", "gdn.forward", None),
        ("maecodec.gdn", "igdn_forward", "gdn.inverse", None),
        ("maecodec.network.CodecModel", "encode", "network.encode", None),
        ("maecodec.network.CodecModel", "decode", "network.decode", None),
        ("maecodec.network.ModulationNet", "__call__", "network.modulation", None),
        ("maecodec.entropy", "rate_bits", "entropy.rate_bits", None),
        ("maecodec.entropy", "build_cdf_tables", "entropy.tables", None),
        ("maecodec.entropy", "choose_support", "entropy.choose_support", None),
        ("maecodec.entropy", "quantize", "entropy.quantize", None),
        ("maecodec.rangecoder", "rc_encode", "rangecoder.encode", encoded_symbols),
        ("maecodec.rangecoder", "rc_decode", "rangecoder.decode", decoded_symbols),
        ("maecodec.training", "rd_terms", "training.rd_terms", None),
        ("maecodec.training.Adam", "step", "training.adam", None),
        ("maecodec.training", "next_batch", "training.next_batch", None),
        ("maecodec.training.Checkpoint", "load", "training.checkpoint_load", None),
        ("maecodec.training.Checkpoint", "model_hash", "training.model_hash", None),
        ("maecodec.codec", "compress_image", "codec.compress_image", None),
        ("maecodec.codec", "decompress_image", "codec.decompress_image", None),
        ("maecodec.image_io", "read_image", "image_io.read", None),
        ("maecodec.image_io", "write_image", "image_io.write", None),
        ("maecodec.cli", "main", "cli.main", None),
    ]
    return targets


# density grid evaluations are counted, not spanned: each table build
# should evaluate FactorizedDensity.cumulative over the grid once
GRID_COUNTER = ("maecodec.entropy.FactorizedDensity", "cumulative", "entropy.grid_evals")


class Tracer:
    """In-memory span store for one traced run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_op = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_work = array("d")
        self.op_ids = array("q")
        self.op_start = array("d")
        self.op_end = array("d")
        self.counts = {}
        self.op = -1
        self._stack = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_op(self, op_id):
        self.op = op_id
        self.op_ids.append(op_id)
        self.op_start.append(time.perf_counter())

    def end_op(self):
        self.op_end.append(time.perf_counter())
        self.op = -1
        self._stack.clear()

    def wrap(self, name, fn, work=None):
        """A stand-in for ``fn`` that records a span while an op is open."""
        nid = self.name_id(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            amount = work(args, kwargs) if work is not None else 0.0
            idx = len(self.span_name)
            self.span_op.append(self.op)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_work.append(amount)
            self.span_end.append(0.0)
            self._stack.append(idx)
            self.span_start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                self.span_end[idx] = perf()
                self._stack.pop()

        return traced

    def counter(self, name, fn, inside):
        """A stand-in for ``fn`` that counts calls made inside an open span
        whose name is in ``inside``."""
        inside_ids = {self.name_id(n) for n in inside}

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.op >= 0 and any(self.span_name[i] in inside_ids for i in self._stack):
                key = (self.op, name)
                self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def breakdown(self):
        """Per-op self time, calls and work per span name; see op_breakdown."""
        return op_breakdown(
            len(self.names), np.asarray(self.op_ids), np.asarray(self.op_start),
            np.asarray(self.op_end), np.asarray(self.span_op), np.asarray(self.span_name),
            np.asarray(self.span_parent), np.asarray(self.span_start),
            np.asarray(self.span_end), np.asarray(self.span_work))

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), op_ids=np.asarray(self.op_ids),
            op_start=np.asarray(self.op_start), op_end=np.asarray(self.op_end),
            span_op=np.asarray(self.span_op), span_name=np.asarray(self.span_name),
            span_parent=np.asarray(self.span_parent), span_start=np.asarray(self.span_start),
            span_end=np.asarray(self.span_end), span_work=np.asarray(self.span_work))


def self_times(parent, start, end):
    """Each span's duration minus the durations of its direct children."""
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    children = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(children, parent[nested], dur[nested])
    return dur - children


def op_breakdown(num_names, op_ids, op_start, op_end, span_op, span_name,
                 span_parent, span_start, span_end, span_work):
    """Aggregate spans per op.

    Returns a dict of arrays: ``op_s`` (n_ops,), ``self_s``, ``calls`` and
    ``work`` (n_ops, num_names), and ``remainder_s`` (n_ops,), the part
    of each op no top-level span covers.  ``op_ids`` must be increasing.
    """
    op_ids = np.asarray(op_ids, dtype=np.int64)
    n_ops = len(op_ids)
    op_s = np.asarray(op_end, dtype=np.float64) - np.asarray(op_start, dtype=np.float64)
    span_name = np.asarray(span_name, dtype=np.int64)
    span_parent = np.asarray(span_parent, dtype=np.int64)
    row = np.searchsorted(op_ids, np.asarray(span_op, dtype=np.int64))
    key = row * num_names + span_name
    size = n_ops * num_names
    selfs = self_times(span_parent, span_start, span_end)
    dur = np.asarray(span_end, dtype=np.float64) - np.asarray(span_start, dtype=np.float64)
    top = span_parent < 0
    covered = np.bincount(row[top], weights=dur[top], minlength=n_ops)
    return {
        "op_s": op_s,
        "self_s": np.bincount(key, weights=selfs, minlength=size).reshape(n_ops, num_names),
        "calls": np.bincount(key, minlength=size).reshape(n_ops, num_names),
        "work": np.bincount(key, weights=np.asarray(span_work, dtype=np.float64),
                            minlength=size).reshape(n_ops, num_names),
        "remainder_s": op_s - covered,
    }


def _resolve(path):
    """Import a dotted module path, or a class inside one."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


def _bindings(owner, attr):
    """Every (namespace, name) a caller could look ``owner.attr`` up by.

    A class attribute is looked up on the class only.  A module function
    is also looked up in every maecodec module that imported it by name.
    """
    if inspect.isclass(owner):
        return [(owner, attr)]
    original = vars(owner)[attr]
    found = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "maecodec" or name.startswith("maecodec.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                found.append((module, key))
    return found


def _wrapped(raw, make):
    """Apply ``make`` to the function inside a plain function, classmethod
    or property, keeping the descriptor kind."""
    if isinstance(raw, classmethod):
        return classmethod(make(raw.__func__))
    if isinstance(raw, property):
        return property(make(raw.fget))
    return make(raw)


@contextmanager
def installed(tracer):
    """Install the span wrappers and the grid-evaluation counter; restore
    every original binding on exit."""
    saved = []
    try:
        for owner_path, attr, name, work in span_targets():
            for namespace, key in _bindings(_resolve(owner_path), attr):
                raw = vars(namespace)[key]
                saved.append((namespace, key, raw))
                setattr(namespace, key, _wrapped(raw, lambda fn: tracer.wrap(name, fn, work)))
        owner_path, attr, name = GRID_COUNTER
        owner = _resolve(owner_path)
        raw = vars(owner)[attr]
        saved.append((owner, attr, raw))
        setattr(owner, attr, tracer.counter(name, raw, TABLE_BUILD_SPANS))
        yield tracer
    finally:
        for namespace, key, raw in reversed(saved):
            setattr(namespace, key, raw)
