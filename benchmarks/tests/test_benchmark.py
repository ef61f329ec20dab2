"""Tests of the benchmark itself: span arithmetic and its checks, tail
choice, speed scaling, wrapper install and restore, and exactly
repeating counts.

    python3 -m pytest benchmarks/tests -q
"""

import shutil
import subprocess
import sys

import numpy as np
import pytest

import bench_env
import bench_runner
import bench_trace
import bench_workloads
from conftest import BENCH_DIR
from maecodec import codec, entropy, network, tensor, training

COUNT_METRICS = [m["name"] for m in bench_runner.SPEC["per_layer"]
                 if m["name"].endswith(".calls")] + [
    "tensor.conv.gflop", "rangecoder.symbols", "entropy.grid_evals"]


def test_self_time_of_nested_spans():
    # op 0 spans [0, 10]: A [1, 9] holds B [2, 4] (which holds D [3, 3.5])
    # and C [5, 6]; op 1 spans [20, 25] and holds E [21, 22]
    names = ["A", "B", "C", "D", "E"]
    span_op = [0, 0, 0, 0, 1]
    span_name = [0, 1, 2, 3, 4]
    span_parent = [-1, 0, 0, 1, -1]
    start = [1.0, 2.0, 5.0, 3.0, 21.0]
    end = [9.0, 4.0, 6.0, 3.5, 22.0]
    np.testing.assert_allclose(bench_trace.self_times(span_parent, start, end),
                               [5.0, 1.5, 1.0, 0.5, 1.0])
    split = bench_trace.op_breakdown(len(names), [0, 1], [0.0, 20.0], [10.0, 25.0], span_op,
                                     span_name, span_parent, start, end, [0.0] * 5)
    np.testing.assert_allclose(split["self_s"], [[5.0, 1.5, 1.0, 0.5, 0.0],
                                                 [0.0, 0.0, 0.0, 0.0, 1.0]])
    np.testing.assert_allclose(split["remainder_s"], [2.0, 4.0])
    np.testing.assert_allclose(split["self_s"].sum(axis=1) + split["remainder_s"],
                               split["op_s"])
    np.testing.assert_array_equal(split["calls"], [[1, 1, 1, 1, 0], [0, 0, 0, 0, 1]])


class _Spans:
    """A tracer's span arrays, set by hand."""

    def __init__(self, op_ids, op_start, op_end, span_op, parent, start, end):
        self.op_ids, self.op_start, self.op_end = op_ids, op_start, op_end
        self.span_op, self.span_name = span_op, list(range(len(span_op)))
        self.span_parent, self.span_start, self.span_end = parent, start, end

    def split(self):
        return bench_trace.op_breakdown(
            len(self.span_op), self.op_ids, self.op_start, self.op_end, self.span_op,
            self.span_name, self.span_parent, self.span_start, self.span_end,
            [0.0] * len(self.span_op))


class _Timed:
    def __init__(self, op_ids, op_s):
        self.op_ids, self.op_s = op_ids, op_s


@pytest.mark.parametrize("parent, start, end, measured, message", [
    ([-1, 0], [1.0, 2.0], [9.0, 4.0], 9.9995, None),
    ([-1, 0], [1.0, 2.0], [3.0, 5.0], 9.9995, "shorter than the spans nested"),
    ([-1, -1], [1.0, 2.0], [9.0, 8.0], 9.9995, "cover more than the op"),
    ([-1, 0], [1.0, 2.0], [9.0, 4.0], 10.5, "differs from the measured op time"),
    ([-1, 0], [1.0, 2.0], [9.0, 4.0], 9.9, "differs from the measured op time"),
])
def test_span_checks_catch_misnested_spans_and_op_boundaries(parent, start, end, measured,
                                                            message):
    # op 3 spans [0, 10]; the loop measured ``measured`` seconds of it
    spans = _Spans([3], [0.0], [10.0], [3, 3], parent, start, end)
    timed = _Timed([3], [measured])
    if message is None:
        bench_runner.check_spans(spans, spans.split(), timed)
    else:
        with pytest.raises(RuntimeError, match=message):
            bench_runner.check_spans(spans, spans.split(), timed)


def test_scaled_times_follow_the_calibration_kernel():
    # a host twice as slow as the reference takes twice the reference time
    # for the calibration kernel, and its times are halved
    slow = [2 * bench_runner.CAL_REFERENCE_S] * 3
    assert bench_runner.host_speed(slow) == pytest.approx(0.5)
    assert bench_runner.calibration_s() > 0


@pytest.mark.parametrize("n, pct", [
    (1, 50.0), (19, 50.0), (20, 50.0), (30, 66.6), (85, 88.2), (100, 90.0),
    (1000, 99.0), (10000, 99.9), (100000, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    assert bench_runner.tail_percentile(n) == pct
    summary = bench_runner.latency_summary(np.arange(n) / 1e3)
    assert summary["tail_pct"] == f"p{pct:g}"
    assert summary["n"] == n
    if n >= 20:
        assert 10 - 1e-9 <= summary["beyond"] < 10 + n / 1000


def _bindings_snapshot():
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "maecodec" or name.startswith("maecodec."))]
    classes = [tensor.GradientTape, network.CodecModel, network.ModulationNet,
               training.Adam, training.Checkpoint, entropy.FactorizedDensity]
    return {id(ns): {key: id(value) for key, value in vars(ns).items()}
            for ns in modules + classes}


def test_wrappers_cover_every_binding_and_are_removed():
    before = _bindings_snapshot()
    original = entropy.build_cdf_tables
    ckpt = training.snapshot(network.CodecModel(
        network.CodecConfig(channels=4, mod_hidden=2), network.TradeoffSet((1.0, 2.0)), "mae"), 0)
    tracer = bench_trace.Tracer()
    with bench_trace.installed(tracer):
        # codec imported build_cdf_tables by name: that binding is wrapped too
        assert codec.build_cdf_tables is not original
        assert entropy.build_cdf_tables is not original
        assert codec.build_cdf_tables.__wrapped__ is original
        tracer.begin_op(0)
        loaded = codec.LoadedCodec(ckpt)
        loaded.tables()
        tracer.end_op()
        loaded.tables()  # outside an op: passes straight through
    assert _bindings_snapshot() == before
    assert codec.build_cdf_tables is original
    names = [tracer.names[i] for i in tracer.span_name]
    assert names.count("entropy.tables") == 1
    assert names.count("entropy.choose_support") == 1
    assert names.count("training.model_hash") == 1
    assert "tensor.other" in names
    assert tracer.counts == {(0, "entropy.grid_evals"): 2}


def _traced_counts(cls):
    tracer = bench_trace.Tracer()
    untraced, traced = bench_runner.measure_traced(cls(0), 0.0, tracer, warmup=1)
    assert untraced.failed == traced.failed == 0
    assert list(tracer.op_ids) == [1]  # the warm-up round is not traced
    metrics = bench_runner.per_layer(tracer, traced, untraced)
    return {name: metrics[name] for name in COUNT_METRICS}


@pytest.mark.parametrize("name", sorted(bench_workloads.WORKLOADS))
def test_exact_counts_repeat_on_short_runs(name):
    cls = bench_workloads.WORKLOADS[name]
    first = _traced_counts(cls)
    assert first["tensor.conv2d.calls"] > 0
    assert _traced_counts(cls) == first


def test_counts_match_the_workload_shapes():
    counts = _traced_counts(bench_workloads.Codec512)
    # a 512^2 image has a 32 x 32 x 32 latent, encoded then decoded
    assert counts["rangecoder.symbols"] == 2 * 32 * 32 * 32
    assert counts["entropy.grid_evals"] == 0  # tables were built in set-up
    assert counts["tensor.conv2d_transpose.calls"] == 3
    cli = _traced_counts(bench_workloads.CliCold96)
    assert cli["entropy.grid_evals"] == 2  # the density grid is evaluated twice per build


def test_unpinned_threads_are_refused():
    info = bench_env.describe()
    bench_env.check_pinned(info)
    with pytest.raises(bench_env.UnpinnedThreads):
        bench_env.check_pinned(dict(info, thread_env={"OMP_NUM_THREADS": "4"}))
    with pytest.raises(bench_env.UnpinnedThreads):
        bench_env.check_pinned(dict(info, blas_threads=2))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "gradcheck_tiny", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
