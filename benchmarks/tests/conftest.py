import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]

sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import bench_env  # noqa: E402 - needs the path above; imports no numpy

bench_env.pin_threads()
