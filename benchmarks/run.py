"""maecodec benchmark: four single-threaded workloads, each in its own process.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all [--seed N] [--seconds S]

NAME is one of the workloads in BENCHMARK.json: train_desk, codec_512,
cli_cold_96 or gradcheck_tiny.  Run from the root of a source checkout;
the benchmark imports maecodec from its ``src/`` directory and builds
every input from the seed.  A run sets the workload up at least five
times, then runs checked ops back to back for S seconds and prints a
table followed, as its last line, by one JSON object.

With ``--trace 0`` the JSON carries the gated end-to-end metrics, which
every workload reports: ``op_p50``, the median op time (one op is a
training step, a compress+decompress round trip, or a gradient check),
and ``setup_s``, the median set-up time, both scaled to a reference host
speed by a calibration kernel timed next to them (see bench_runner), and
``peak_rss_mb``.  The table also shows the raw wall-clock op median and
tail, ``throughput_per_s`` (crops, round trips or objective evaluations
per second of op time), ``error_rate`` and each workload's own rows:
train_step_ms_*, compress_ms_*, decompress_ms_*, train_samples_per_s and
gradcheck_evals_per_s.  A ``_tail`` is the highest percentile, to a
tenth, with at least ten samples beyond it (p50 below twenty samples),
printed with its sample count.

With ``--trace 1`` every op runs twice, untraced and traced, in an order
that alternates from op to op, and the JSON carries the per-layer
metrics: medians over traced ops of each layer's call count and self
time, plus counts and the tracing overhead.  Spans are written to
``benchmarks/out/spans_<workload>.npz``.

``--workload all`` runs every workload untraced and then traced, each in
a child process, and writes the merged results with the machine's
thread and BLAS settings to ``benchmarks/out/BENCH.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "out" / "BENCH.json"
# what a child needs beyond its measured seconds: imports, set-up, warm-up
CHILD_ALLOWANCE_S = 150


def _parser(names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _import_maecodec():
    """Put the checkout's src/ first on the path; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "maecodec" / "__init__.py").is_file():
        raise SystemExit(f"error: no maecodec sources under {src}")
    sys.path.insert(0, str(src))
    import maecodec

    if Path(maecodec.__file__).resolve().parent != (src / "maecodec").resolve():
        raise SystemExit(f"error: imported maecodec from {maecodec.__file__}, not {src}")


def _print_rows(name, rows):
    for metric, value, unit, detail in rows:
        print(f"{name:15s} {metric:32s} {value:14.6g} {unit:9s} {detail}")


def run_one(args):
    import bench_env
    import bench_runner
    import bench_workloads

    env = bench_env.describe()
    try:
        bench_env.check_pinned(env)
    except bench_env.UnpinnedThreads as exc:
        raise SystemExit(f"error: refusing to report: {exc}")
    print(bench_env.summary(env))
    out_dir = bench_workloads.OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    cls = bench_workloads.WORKLOADS[args.workload]
    spans = out_dir / f"spans_{args.workload}.npz" if args.trace else None
    report = bench_runner.run(cls, args.seed, args.seconds, bool(args.trace), spans)
    report["environment"] = env
    for error in report["errors"]:
        print(f"{args.workload}: FAILED {error}", file=sys.stderr)
    if "metrics" not in report:
        raise SystemExit(f"error: {args.workload}: no op succeeded")
    _print_rows(args.workload, report["rows"])
    (out_dir / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": bench_runner.UNITS[name]}
                    for name, value in report["metrics"].items()},
    }))
    return 0


def run_all(args):
    """Every workload untraced then traced, one child process each."""
    import bench_env
    import bench_runner

    results = {"environment": bench_env.describe(), "seed": args.seed,
               "seconds": args.seconds, "workloads": {}}
    ok = True
    for name in bench_runner.WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            try:
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=args.seconds + CHILD_ALLOWANCE_S)
            except subprocess.TimeoutExpired as exc:
                print(f"{name}: trace {trace}: no result within {exc.timeout:.0f} s",
                      file=sys.stderr)
                ok = False
                continue
            lines = proc.stdout.splitlines()
            # a child that exits 0 ends with its JSON result line
            print("\n".join(lines[:-1] if proc.returncode == 0 else lines), flush=True)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not json.loads(lines[-1])["correct"]:
                ok = False
                continue
            report = json.loads((BENCH_DIR / "out" / f"{name}.trace{trace}.json").read_text())
            entry = results["workloads"].setdefault(name, {})
            entry["per_layer" if trace else "end_to_end"] = report
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    RESULTS.write_text(json.dumps(results, indent=1))
    print(f"wrote {RESULTS}")
    return 0 if ok else 1


def main(argv=None):
    # BLAS and OpenMP read these once, when numpy loads its libraries
    import bench_env

    bench_env.pin_threads()
    _import_maecodec()
    import bench_runner

    args = _parser(bench_runner.WORKLOAD_NAMES).parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
