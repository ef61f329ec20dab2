"""The benchmark's traced run wraps maecodec functions by name.  Installing
its wrappers here makes a removed or renamed name fail the unit suite, not
a traced benchmark run.  benchmarks/bench_trace.py is loaded read-only and
not registered as a module; bench_env, which pins threads, is not loaded."""

import importlib.util
import sys
from pathlib import Path

import maecodec  # noqa: F401 - every module that binds a traced name by import
import maecodec.cli  # noqa: F401

BENCH_TRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_trace.py"


def _load_bench_trace():
    spec = importlib.util.spec_from_file_location("maecodec_bench_trace", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(bench_trace, targets):
    """(namespace, name) -> object for every maecodec module and every
    class that owns a traced method."""
    namespaces = [m for name, m in sys.modules.items()
                  if m is not None and (name == "maecodec" or name.startswith("maecodec."))]
    namespaces += [bench_trace._resolve(owner) for owner, _ in targets]
    return {(ns.__name__, key): value
            for ns in {id(ns): ns for ns in namespaces}.values()
            for key, value in vars(ns).items()}


def test_every_traced_binding_is_wrapped_and_restored():
    bench_trace = _load_bench_trace()
    targets = [(owner, attr) for owner, attr, *_ in bench_trace.span_targets()]
    targets.append(bench_trace.GRID_COUNTER[:2])
    before = _bindings(bench_trace, targets)
    originals = {id(vars(bench_trace._resolve(owner))[attr]) for owner, attr in targets}

    with bench_trace.installed(bench_trace.Tracer()):
        during = _bindings(bench_trace, targets)
        # each traced object is replaced under every name it is bound by,
        # and nothing else is replaced
        assert {key for key, value in before.items() if during[key] is not value} == \
            {key for key, value in before.items() if id(value) in originals}

    after = _bindings(bench_trace, targets)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
