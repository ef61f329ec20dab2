"""Set-up, the measured op loop, and the metrics computed from it."""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import bench_trace

# set-up runs at least SETUP_MIN_REPEATS times and until SETUP_BUDGET_S
# has passed (at most SETUP_MAX_REPEATS), so cheap set-ups get a steady
# median; SETUP_CAL_SAMPLES calibration samples follow each set-up
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 50
SETUP_BUDGET_S = 1.0
SETUP_CAL_SAMPLES = 3
WARMUP_OPS = 2
MAX_ERRORS_KEPT = 5
# rounding of a sum of ~10^4 span durations on a perf_counter scale
SPAN_ROUNDING_S = 1e-6
# the tracer reads the clock just outside the loop's own op timer
SPAN_OP_SLACK_S = 1e-3
TAIL_SAMPLES = 10

# the metric catalogue and workload names, from the benchmark's declaration
SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# A shared virtual machine can change speed by 1.6x within a minute (on a
# 2-vCPU Xeon VM, other tenants contending for caches and cores), and CPU
# time slows as much as wall time.  So the gated timings are scaled to a
# reference host speed: a fixed, maecodec-free mix of interpreter and BLAS
# work (the calibration kernel) runs after every op and every set-up, and
# a timing t becomes t * CAL_REFERENCE_S / median(calibration times of the
# same stretch).  A change to maecodec moves the scaled figure as much as
# the raw one.  On that VM this cut the spread (IQR/median) of ten runs'
# op medians from up to 30% to at most 10%.
CAL_REFERENCE_S = 2.0e-3
CAL_LOOP = 16000
CAL_MATMULS = 6
_CAL_MATRIX = np.random.default_rng(0).random((128, 128))


def calibration_s():
    """Seconds the calibration kernel takes on the host as it is now."""
    t0 = time.perf_counter()
    total = 0
    for k in range(CAL_LOOP):
        total += k * k
    for _ in range(CAL_MATMULS):
        _CAL_MATRIX @ _CAL_MATRIX
    return time.perf_counter() - t0


def host_speed(cal_s):
    """How many times faster than the reference host this stretch ran."""
    return CAL_REFERENCE_S / statistics.median(cal_s)


def tail_percentile(n):
    """Highest percentile, to a tenth, with at least TAIL_SAMPLES of ``n``
    samples beyond it; the median when that would be below the median.

    Continuous in ``n``, so a run that fits a few more ops than another
    moves its tail percentile a little instead of jumping a rung.
    """
    tenths = 1000 * (n - TAIL_SAMPLES) // n if n > 0 else 0
    return max(tenths, 500) / 10


def latency_summary(samples_s):
    """Median and tail of op latencies in ms, with the tail's percentile,
    the sample count and how many samples lie beyond the tail."""
    ms = np.asarray(samples_s, dtype=np.float64) * 1e3
    pct = tail_percentile(len(ms))
    return {"p50": float(np.percentile(ms, 50)),
            "tail": float(np.percentile(ms, pct)),
            "tail_pct": f"p{pct:g}", "n": len(ms),
            "beyond": len(ms) * (100 - pct) / 100}


def set_up(cls, seed):
    """Build the workload repeatedly (see SETUP_BUDGET_S); keep the last.

    Returns the workload, the set-up times and the calibration times
    sampled after each set-up."""
    times, cal_s = [], []
    workload = None
    while len(times) < SETUP_MIN_REPEATS or (
            sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPEATS):
        workload = None
        gc.collect()
        t0 = time.perf_counter()
        workload = cls(seed)
        times.append(time.perf_counter() - t0)
        cal_s += [calibration_s() for _ in range(SETUP_CAL_SAMPLES)]
    return workload, times, cal_s


class Phase:
    """What one stretch of the op loop measured."""

    def __init__(self, parts):
        self.op_ids = []
        self.op_s = []
        self.cal_s = []
        self.parts_s = {part: [] for part in parts}
        self.work = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.infos = {}


def _rounds(seconds, warmup):
    """(index, measured) for ``warmup`` unmeasured rounds, then for measured
    rounds until ``seconds`` have passed since the first of them."""
    i = 0
    deadline = None
    while deadline is None or time.perf_counter() < deadline:
        measured = i >= warmup
        if measured and deadline is None:
            deadline = time.perf_counter() + seconds
        yield i, measured
        i += 1


def _attempt(workload, phase, i, measured, tracer=None):
    """Run and check op ``i``; a failed op counts in ``failed`` and
    contributes no sample.  With a tracer, the timed part is traced."""
    phase.attempted += 1
    try:
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            out = workload.run(i)
        finally:
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end_op()
        info = workload.check(i, out)
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
        phase.failed += 1
        if len(phase.errors) < MAX_ERRORS_KEPT:
            phase.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
    else:
        if measured:
            phase.op_ids.append(i)
            phase.op_s.append(t1 - t0)
            for part, secs in out["parts"].items():
                phase.parts_s[part].append(secs)
            phase.work += out["work"]
            phase.infos[i] = info


def measure(workload, seconds, warmup=WARMUP_OPS):
    """Run checked ops back to back for ``seconds`` after ``warmup``
    unmeasured (but checked) ones; a calibration sample follows each
    measured op."""
    phase = Phase(workload.parts)
    for i, measured in _rounds(seconds, warmup):
        _attempt(workload, phase, i, measured)
        if measured:
            phase.cal_s.append(calibration_s())
    return phase


def measure_traced(workload, seconds, tracer, warmup=WARMUP_OPS):
    """Like measure, but every round runs op i twice, untraced and with the
    span wrappers installed, so that both meet the same host conditions and
    their difference is the tracing overhead.  The order alternates from
    round to round, because the second run of an op finds warmer caches."""
    untraced, traced = Phase(workload.parts), Phase(workload.parts)
    for i, measured in _rounds(seconds, warmup):
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if with_spans:
                with bench_trace.installed(tracer):
                    _attempt(workload, traced, i, measured, tracer if measured else None)
            else:
                _attempt(workload, untraced, i, measured)
    return untraced, traced


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, phase, setup_times, setup_cal_s):
    """Gated metrics, and table rows for them and the workload's own names.

    The gated op and set-up times are scaled to the reference host speed
    (see CAL_REFERENCE_S), each by the calibration samples taken next to
    it; the other latency rows are wall time as measured.

    Returns (metrics {name: value}, rows [(name, value, unit, detail)]).
    """
    op = latency_summary(phase.op_s)
    op_speed = host_speed(phase.cal_s)
    setup_speed = host_speed(setup_cal_s)
    metrics = {
        "op_p50": op["p50"] * op_speed,
        "setup_s": statistics.median(setup_times) * setup_speed,
        "peak_rss_mb": peak_rss_mb(),
    }
    throughput = phase.work / sum(phase.op_s)
    per_s = f"{workload.work_unit} per second of op time, {op['n']} ops"
    rows = [
        ("op_p50", metrics["op_p50"], UNITS["op_p50"],
         f"op_ms_p50 x host_speed, n={op['n']}"),
        ("op_tail", op["tail"] * op_speed, UNITS["op_p50"],
         f"op_ms_tail x host_speed, {op['tail_pct']}, n={op['n']}, "
         f"{op['beyond']:.1f} beyond"),
        ("host_speed", op_speed, "ratio",
         f"reference / measured calibration time, {len(phase.cal_s)} samples"),
        ("throughput_per_s", throughput, "1/s", per_s),
        ("setup_s", metrics["setup_s"], UNITS["setup_s"],
         f"setup_wall_s x set-up host_speed {setup_speed:.3f}"),
        ("setup_wall_s", statistics.median(setup_times), "s",
         f"median of {len(setup_times)} set-ups"),
        ("peak_rss_mb", metrics["peak_rss_mb"], UNITS["peak_rss_mb"], "whole process"),
        ("error_rate", phase.failed / phase.attempted, "ratio",
         f"{phase.failed} failed of {phase.attempted} ops"),
    ]
    if workload.work_name:
        rows.append((workload.work_name, throughput, f"{workload.work_unit}/s", per_s))
    series = [("op_ms", phase.op_s)]
    if workload.latency_name:
        series.append((workload.latency_name, phase.op_s))
    series += [(f"{part}_ms", phase.parts_s[part]) for part in workload.parts]
    for name, samples in series:
        s = latency_summary(samples)
        rows.append((f"{name}_p50", s["p50"], "ms", f"n={s['n']}"))
        rows.append((f"{name}_tail", s["tail"], "ms",
                     f"{s['tail_pct']}, n={s['n']}, {s['beyond']:.1f} beyond"))
    return metrics, rows


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def check_spans(tracer, split, traced):
    """Raise unless the spans nest inside their ops and their parents.

    Every span's self time and every op's untraced remainder must be
    non-negative, and the tracer's op boundaries must enclose the op time
    the loop measured, by at most SPAN_OP_SLACK_S.
    """
    selfs = bench_trace.self_times(tracer.span_parent, tracer.span_start, tracer.span_end)
    if selfs.min(initial=0.0) < -SPAN_ROUNDING_S:
        raise RuntimeError("a span is shorter than the spans nested in it")
    if split["remainder_s"].min(initial=0.0) < -SPAN_ROUNDING_S:
        raise RuntimeError("the spans of an op cover more than the op")
    row = dict(zip(tracer.op_ids, split["op_s"]))
    gap = np.array([row[i] - t for i, t in zip(traced.op_ids, traced.op_s)])
    if gap.size and not (gap.min() >= 0.0 and gap.max() <= SPAN_OP_SLACK_S):
        raise RuntimeError(f"traced op time differs from the measured op time by "
                           f"{gap.min():.2e} to {gap.max():.2e} s")


def per_layer(tracer, traced, untraced):
    """Per-layer metrics of a traced phase, as medians over its ops."""
    names = [m["name"] for m in SPEC["per_layer"]]
    split = tracer.breakdown()
    op_s = split["op_s"]
    check_spans(tracer, split, traced)

    def column(table, name):
        if name not in tracer.names:
            return np.zeros(len(op_s))
        return table[:, tracer.names.index(name)]

    metrics = {}
    for name in names:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = _median(column(split["calls"], layer))
        elif kind == "self_ms":
            metrics[name] = _median(column(split["self_s"], layer) * 1e3)

    conv = ("tensor.conv2d", "tensor.conv2d_transpose")
    conv_flop = sum(column(split["work"], n) for n in conv)
    conv_s = sum(column(split["self_s"], n) for n in conv)
    metrics["tensor.conv.gflop"] = _median(conv_flop / 1e9)
    metrics["tensor.conv.gflop_per_s"] = (
        float(conv_flop.sum() / conv_s.sum() / 1e9) if conv_s.sum() > 0 else 0.0)

    builds = column(split["calls"], "entropy.tables")
    grid = np.array([tracer.counts.get((op_id, "entropy.grid_evals"), 0)
                     for op_id in tracer.op_ids], dtype=np.float64)
    metrics["entropy.grid_evals"] = _median(grid[builds > 0] / builds[builds > 0])
    metrics["rangecoder.symbols"] = _median(
        column(split["work"], "rangecoder.encode") + column(split["work"], "rangecoder.decode"))

    infos = [traced.infos[i] for i in tracer.op_ids if i in traced.infos]
    for metric, key in (("rangecoder.overhead_bits", "overhead_bits"),
                        ("codec.bpp", "bpp"), ("codec.psnr_db", "psnr_db")):
        metrics[metric] = _median([info[key] for info in infos if key in info])

    metrics["untraced.self_ms"] = _median(split["remainder_s"] * 1e3)
    metrics["trace_overhead_pct"] = 100.0 * (
        np.median(traced.op_s) / np.median(untraced.op_s) - 1.0)
    return {name: metrics[name] for name in names}


def run(cls, seed, seconds, trace, spans_path=None):
    """One workload in this process; returns the full report dict."""
    workload, setup_times, setup_cal_s = set_up(cls, seed)
    report = {"workload": cls.name, "seed": seed, "seconds": seconds, "trace": trace,
              "setup_times_s": setup_times}
    if not trace:
        phase = measure(workload, seconds)
        phases = [phase]
        if phase.op_s:
            report["metrics"], report["rows"] = end_to_end(
                workload, phase, setup_times, setup_cal_s)
            report["op_s"], report["op_cal_s"] = phase.op_s, phase.cal_s
    else:
        tracer = bench_trace.Tracer()
        untraced, traced = measure_traced(workload, seconds, tracer)
        phases = [untraced, traced]
        if spans_path is not None:
            tracer.save(spans_path)
        if untraced.op_s and traced.op_s:
            report["metrics"] = per_layer(tracer, traced, untraced)
            detail = f"median of {len(tracer.op_ids)} traced ops"
            report["rows"] = [
                (name, value, UNITS[name],
                 f"computed from tensor shapes, {detail}" if ".gflop" in name else detail)
                for name, value in report["metrics"].items()]
    report["attempted"] = sum(p.attempted for p in phases)
    report["failed"] = sum(p.failed for p in phases)
    report["errors"] = [e for p in phases for e in p.errors]
    return report
