"""The machine and thread settings every benchmark result is recorded with.

At these tensor sizes a multi-threaded BLAS is a large slowdown (a 1x1
convolution forward and backward measured 20.9 ms unpinned against
0.48 ms pinned), so the benchmark pins BLAS and OpenMP to one thread
before numpy is imported and refuses to report if the pin did not hold.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# numpy's wheels bundle a symbol-prefixed 64-bit-integer OpenBLAS
_OPENBLAS_GET_THREADS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")


class UnpinnedThreads(RuntimeError):
    pass


def pin_threads(environ=os.environ):
    """Set every thread variable to 1; must run before numpy is imported."""
    for var in THREAD_VARS:
        environ[var] = "1"


def openblas_threads():
    """Thread count numpy's bundled OpenBLAS reports, or None when numpy
    does not bundle an OpenBLAS this can query."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(pattern)):
        lib = ctypes.CDLL(path)
        for symbol in _OPENBLAS_GET_THREADS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def describe():
    """BLAS build, thread settings, library versions and CPU."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": openblas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def summary(info):
    """One line naming the settings a result was measured under."""
    threads = " ".join(f"{var}={val}" for var, val in info["thread_env"].items())
    return (f"env: python {info['python']} numpy {info['numpy']} scipy {info['scipy']} "
            f"blas {info['blas']['name']} {info['blas']['version']} "
            f"blas_threads={info['blas_threads']} {threads} nproc={info['nproc']} "
            f"cpu={info['cpu_model']!r}")


def check_pinned(info):
    """Raise UnpinnedThreads unless every thread setting in ``info`` is 1."""
    loose = {var: val for var, val in info["thread_env"].items() if val != "1"}
    if loose:
        raise UnpinnedThreads(f"thread variables not pinned to 1: {loose}")
    if info["blas_threads"] not in (None, 1):
        raise UnpinnedThreads(f"OpenBLAS runs {info['blas_threads']} threads, expected 1")
